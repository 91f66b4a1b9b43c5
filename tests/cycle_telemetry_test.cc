// Every field of the per-cycle telemetry list (src/obs/cycle_telemetry.h)
// reaches every export without being named: CycleStats, the phase CSV,
// RunMetrics and its CSV, and the registry.

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/metrics/metrics.h"
#include "src/metrics/report.h"
#include "src/obs/cycle_telemetry.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/sim/simulator.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"

namespace threesigma {
namespace {

// Field i's value in cycle k: distinct across fields and cycles, and exact
// as a double.
double FieldValue(size_t i, int k) { return 1000.0 * static_cast<double>(i + 1) + k; }

std::string FieldText(const CycleTelemetry& t, const CycleField& f) {
  std::ostringstream os;
  WriteCycleField(os, t, f);
  return os.str();
}

// Column name -> cell of the first data row of a CSV.
std::map<std::string, std::string> FirstRow(const std::string& csv) {
  std::istringstream in(csv);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  std::istringstream names(header);
  std::istringstream cells(row);
  std::map<std::string, std::string> out;
  std::string name;
  std::string cell;
  while (std::getline(names, name, ',') && std::getline(cells, cell, ',')) {
    out[name] = cell;
  }
  return out;
}

// Reports FieldValue for every field and starts nothing.
class TelemetryScheduler : public Scheduler {
 public:
  void OnJobArrival(const JobSpec&, Time) override {}
  void OnJobStarted(JobId, int, Time) override {}
  void OnJobFinished(JobId, Time, Duration) override {}
  void OnJobPreempted(JobId, Time) override {}
  std::string name() const override { return "telemetry"; }
  CycleResult RunCycle(Time, const ClusterStateView&) override {
    CycleResult result;
    for (size_t i = 0; i < std::size(kCycleFields); ++i) {
      const CycleField& f = kCycleFields[i];
      if (f.count != nullptr) {
        result.*f.count = static_cast<int64_t>(FieldValue(i, cycles_));
      } else {
        result.*f.seconds = FieldValue(i, cycles_) / 1024.0;
      }
    }
    ++cycles_;
    return result;
  }

 private:
  int cycles_ = 0;
};

TEST(CycleTelemetryTest, EveryFieldReachesEveryExport) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::CycleProfiler& profiler = obs::CycleProfiler::Global();
  registry.Reset();
  profiler.Clear();
  profiler.SetEnabled(true);
  JobSpec job;  // Never started: it keeps the run cycling until the drain stop.
  job.id = 1;
  job.num_tasks = 1;
  SimOptions options;
  options.drain_limit = 40.0;
  TelemetryScheduler scheduler;
  const SimResult result =
      Simulator(ClusterConfig::Uniform(1, 4), &scheduler, {job}, options).Run();
  profiler.SetEnabled(false);
  ASSERT_GE(result.cycles.size(), 3u);

  std::ostringstream phase_csv;
  profiler.WriteCsv(phase_csv);
  profiler.Clear();
  const RunMetrics m = ComputeMetrics(result, "telemetry");
  std::ostringstream run_csv;
  WriteRunMetricsCsv(run_csv, {m});
  const std::map<std::string, std::string> phase_row = FirstRow(phase_csv.str());
  const std::map<std::string, std::string> run_row = FirstRow(run_csv.str());
  std::map<std::string, int64_t> counters;
  for (const auto& [name, value] : registry.CounterValues()) {
    counters[name] = value;
  }
  registry.Reset();

  for (size_t i = 0; i < std::size(kCycleFields); ++i) {
    const CycleField& f = kCycleFields[i];
    SCOPED_TRACE(f.name);
    // CycleStats carries the scheduler's value, except for the two fields
    // the simulator fills itself; the phase CSV row carries CycleStats'.
    if (f.count != &CycleTelemetry::pending && f.count != &CycleTelemetry::running_jobs) {
      EXPECT_EQ(f.count != nullptr ? static_cast<double>(result.cycles[1].*f.count)
                                   : result.cycles[1].*f.seconds * 1024.0,
                FieldValue(i, 1));
    }
    EXPECT_EQ(phase_row.at(f.name), FieldText(result.cycles[0], f));

    // RunMetrics keeps every field's total and per-cycle maximum.
    CycleTelemetry sum;
    CycleTelemetry max;
    for (const CycleStats& c : result.cycles) {
      if (f.count != nullptr) {
        sum.*f.count += c.*f.count;
        max.*f.count = std::max(max.*f.count, c.*f.count);
      } else {
        sum.*f.seconds += c.*f.seconds;
        max.*f.seconds = std::max(max.*f.seconds, c.*f.seconds);
      }
    }
    EXPECT_EQ(FieldText(m.cycle_sum, f), FieldText(sum, f));
    EXPECT_EQ(FieldText(m.cycle_max, f), FieldText(max, f));

    // The run-metrics CSV and the registry report the declared roll-up.
    const std::string total = std::string("total_") + f.name;
    const std::string high = std::string("max_") + f.name;
    const std::string counter = std::string("sched.") + f.name;
    EXPECT_EQ(run_row.count(total), f.rollup == Rollup::kMax ? 0u : 1u);
    EXPECT_EQ(run_row.count(high), f.rollup == Rollup::kSum ? 0u : 1u);
    EXPECT_EQ(counters.count(counter), f.rollup == Rollup::kWallClock ? 0u : 1u);
    if (f.rollup != Rollup::kMax) {
      EXPECT_EQ(run_row.at(total), FieldText(sum, f));
    }
    if (f.rollup != Rollup::kSum) {
      EXPECT_EQ(run_row.at(high), FieldText(max, f));
    }
    if (f.rollup != Rollup::kWallClock) {
      EXPECT_EQ(counters.at(counter), f.rollup == Rollup::kSum ? sum.*f.count : max.*f.count);
    }
  }
  EXPECT_EQ(counters.at("sched.cycles"), static_cast<int64_t>(result.cycles.size()));

  // The solver reports its work only through the per-cycle record: a
  // branching solve registers no solver.* counter of its own.
  LpModel model;
  const int x = model.AddVariable(0.0, 1.0, 5.0);
  const int y = model.AddVariable(0.0, 1.0, 4.0);
  model.AddRow(RowSense::kLessEqual, 1.4, {{x, 1.0}, {y, 1.0}});
  ASSERT_GT(MilpSolver(LpCore(model), {x, y}).Solve().nodes_explored, 1);
  std::ostringstream dump;
  registry.WriteText(dump);
  std::istringstream lines(dump.str());
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NE(line.rfind("counter solver.", 0), 0u) << line;
  }
}

}  // namespace
}  // namespace threesigma
