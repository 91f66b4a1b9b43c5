// Golden-trace regression harness.
//
// Each case runs a small, fully deterministic 3Sigma simulation with the
// decision log enabled and diffs the per-cycle decision CSV
// (cycle,sim_time,pending,running,starts,preempts,abandons,deferred) against
// a committed golden in tests/golden/. Any change to scheduling behavior —
// intentional or not — shows up as a per-cycle diff here before it shows up
// as a fuzzy end-metric shift.
//
// Updating goldens after an INTENTIONAL scheduling change:
//
//   THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/golden_trace_test
//
// rewrites every golden in the source tree (the GOLDEN_DIR compile
// definition points at tests/golden/); inspect the diff and commit it with
// the change that caused it. A missing golden fails the test rather than
// silently passing — run the update command once when adding a case.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

// Small two-group cluster and a ~6-minute google workload: big enough to
// exercise starts, deferrals, preemptions, and abandonment, small enough to
// keep both runs in the tier-1 budget.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(2, 16);
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Minutes(6.0);
  config.workload.load = 1.4;
  config.workload.seed = 7;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 7;
  config.sched.cycle_period = 10.0;
  // No wall-clock budget: a limit that expires on a slow machine would
  // truncate the search and make the decisions depend on timing.
  config.sched.solver_time_limit_seconds = 0.0;
  return config;
}

std::string DecisionCsvFor(const ExperimentConfig& config) {
  obs::ResetAll();
  obs::Options options;
  options.decisions = true;
  obs::Configure(options);
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  (void)SimulateSystem(SystemKind::kThreeSigma, config, workload);
  const std::string csv = obs::DecisionLog::Global().ToCsvString();
  obs::ResetAll();
  return csv;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// A unified-diff excerpt around the first divergence: a few lines of shared
// context, then up to `max_diff_lines` of -golden/+actual pairs. Line-level
// and human-readable, unlike gtest's byte-offset dump of two multi-KB blobs.
std::string UnifiedDiffExcerpt(const std::string& expected, const std::string& actual,
                               size_t max_diff_lines = 10) {
  const std::vector<std::string> golden = SplitLines(expected);
  const std::vector<std::string> got = SplitLines(actual);
  size_t first = 0;
  while (first < golden.size() && first < got.size() && golden[first] == got[first]) {
    ++first;
  }
  const size_t context_start = first >= 3 ? first - 3 : 0;
  const size_t last = std::min({first + max_diff_lines, golden.size(), got.size()});
  std::ostringstream out;
  out << "@@ golden line " << (first + 1) << " (of " << golden.size() << " golden / "
      << got.size() << " actual lines) @@\n";
  for (size_t i = context_start; i < first; ++i) {
    out << "  " << golden[i] << "\n";
  }
  for (size_t i = first; i < last; ++i) {
    if (i < golden.size() && (i >= got.size() || golden[i] != got[i])) {
      out << "- " << golden[i] << "\n";
    }
    if (i < got.size() && (i >= golden.size() || golden[i] != got[i])) {
      out << "+ " << got[i] << "\n";
    }
  }
  if (last < golden.size() || last < got.size()) {
    out << "  ... (" << (std::max(golden.size(), got.size()) - last)
        << " more lines not shown)\n";
  }
  return out.str();
}

void CheckGolden(const std::string& name, const ExperimentConfig& config) {
  const std::string actual = DecisionCsvFor(config);
  ASSERT_GT(actual.size(),
            std::string("cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n")
                .size())
      << "decision log came back empty";
  const std::string path = std::string(GOLDEN_DIR) + "/" + name + ".csv";
  if (GetEnvInt("THREESIGMA_UPDATE_GOLDENS", 0) != 0) {
    std::string error;
    ASSERT_TRUE(WriteFileAtomic(path, actual, &error)) << error;
    std::cout << "updated golden " << path << "\n";
    return;
  }
  std::string expected;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &expected, &error))
      << "missing golden '" << path
      << "' — generate it with THREESIGMA_UPDATE_GOLDENS=1 (" << error << ")";
  EXPECT_TRUE(expected == actual)
      << "per-cycle decisions drifted from " << path << "\n"
      << UnifiedDiffExcerpt(expected, actual)
      << "if the scheduling change is intentional, regenerate and commit the "
         "goldens with:\n  THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/golden_trace_test";
}

TEST(GoldenTraceTest, Baseline) { CheckGolden("baseline", BaseConfig()); }

TEST(GoldenTraceTest, FaultsOn) {
  ExperimentConfig config = BaseConfig();
  config.sim.faults.node_mttf = 1500.0;
  config.sim.faults.node_mttr = 600.0;
  config.sim.faults.task_kill_prob = 0.05;
  config.sim.faults.seed = 1;
  CheckGolden("faults_on", config);
}

}  // namespace
}  // namespace threesigma
