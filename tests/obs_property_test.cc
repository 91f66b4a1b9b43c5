// Observability non-perturbation properties:
//
//   1. Enabling tracing/profiling/decision logging changes no scheduling
//      decision: per-job results are byte-identical with obs off vs on.
//   2. The decision log and the deterministic trace sections
//      ("trace_names"/"trace_spans") are byte-identical across repeated
//      runs; only the quarantined "trace_timing" section may differ.
//   3. Registry counter totals are identical across repeated runs.
//   4. Registry counters are snapshot-aware: a run killed at a checkpoint and
//      resumed in a fresh process finishes with exactly the counters of an
//      uninterrupted run (no loss before the checkpoint, no double-counting
//      of replayed cycles).
//
// Small cluster + ~6-minute google workload keeps the full matrix inside the
// tier-1 time budget.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"
#include "tests/sim_trace.h"

namespace threesigma {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(2, 16);
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Minutes(6.0);
  config.workload.load = 1.4;
  config.workload.seed = 7;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 7;
  config.sched.cycle_period = 10.0;
  return config;
}

// One full simulation from a clean observability slate. With `obs_on` all
// three facilities run; either way the collected state (spans, decision log,
// registry) is left in place for the caller to inspect.
SimResult RunOnce(bool obs_on) {
  obs::ResetAll();
  if (obs_on) {
    obs::Options options;
    options.tracing = true;
    options.profiler = true;
    options.decisions = true;
    obs::Configure(options);
  }
  ExperimentConfig config = SmallConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  SimResult result = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  // Drop the gates but keep the collected state readable.
  obs::Tracer::Global().SetEnabled(false);
  obs::CycleProfiler::Global().SetEnabled(false);
  obs::DecisionLog::Global().SetEnabled(false);
  return result;
}

TEST(ObsPropertyTest, EnablingObsPerturbsNoDecision) {
  const std::string baseline = SimTrace(RunOnce(/*obs_on=*/false));
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, SimTrace(RunOnce(/*obs_on=*/true))) << "obs on changed per-job results";
}

TEST(ObsPropertyTest, DecisionLogIdenticalAcrossThreadCounts) {
  RunOnce(/*obs_on=*/true);
  const std::string first = obs::DecisionLog::Global().ToCsvString();
  RunOnce(/*obs_on=*/true);
  const std::string second = obs::DecisionLog::Global().ToCsvString();
  EXPECT_GT(first.size(),
            std::string("cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n")
                .size());
  EXPECT_EQ(first, second);
}

TEST(ObsPropertyTest, TraceDeterministicAcrossRunsAndThreadCounts) {
  const auto trace_of = [] {
    RunOnce(/*obs_on=*/true);
    SnapshotWriter writer;
    obs::Tracer::Global().ExportBinary(writer);
    return writer.Finish();
  };
  const std::string first = trace_of();
  const std::string repeat = trace_of();

  const std::vector<std::string> rerun_diff =
      DiffSnapshotSections(first, repeat, {"trace_timing"});
  EXPECT_TRUE(rerun_diff.empty())
      << "trace section '" << rerun_diff.front() << "' differs across identical runs";

  // The traces are non-trivial: spans were actually retained and none lost.
  EXPECT_FALSE(obs::Tracer::Global().CollectSpans().empty());
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0u);
}

TEST(ObsPropertyTest, CounterTotalsIndependentOfSolverThreads) {
  RunOnce(/*obs_on=*/false);
  const auto first = obs::MetricsRegistry::Global().CounterValues();
  RunOnce(/*obs_on=*/false);
  const auto second = obs::MetricsRegistry::Global().CounterValues();
  // Every counter total is a function of the simulated run alone.
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first);
    EXPECT_EQ(first[i].second, second[i].second) << "counter " << first[i].first;
  }
  bool saw_nonzero = false;
  for (const auto& [name, value] : first) {
    saw_nonzero = saw_nonzero || value > 0;
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST(ObsPropertyTest, RegistryCountersContinueAcrossResume) {
  ExperimentConfig config = SmallConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  const auto pretrain = [&workload](SystemInstance& instance) {
    for (const JobSpec& job : workload.pretrain) {
      instance.predictor->RecordCompletion(job.features, job.true_runtime);
    }
  };

  // Uninterrupted reference run.
  obs::ResetAll();
  std::string full_trace;
  {
    SystemInstance instance =
        MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    pretrain(instance);
    Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
    full_trace = SimTrace(sim.Run());
  }
  const auto full = obs::MetricsRegistry::Global().CounterValues();

  // Same run killed after five cycles, checkpointing on the way out.
  const std::string path = ::testing::TempDir() + "/obs_property_resume.snap";
  obs::ResetAll();
  {
    SystemInstance instance =
        MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    pretrain(instance);
    Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(sim.Step());
    }
    std::string error;
    ASSERT_TRUE(sim.WriteCheckpoint(path, &error)) << error;
  }

  // "Fresh process": every counter zeroes, then the snapshot restores them
  // absolutely and the replayed remainder continues on top.
  obs::ResetAll();
  SimResult resumed;
  std::string error;
  ASSERT_TRUE(
      ResumeSystem(SystemKind::kThreeSigma, path, config.sched, config.sim, &resumed, &error))
      << error;
  const auto continued = obs::MetricsRegistry::Global().CounterValues();
  EXPECT_EQ(SimTrace(resumed), full_trace);

  ASSERT_EQ(full.size(), continued.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, continued[i].first);
    EXPECT_EQ(full[i].second, continued[i].second)
        << "counter " << full[i].first << " lost or double-counted across resume";
  }
}

}  // namespace
}  // namespace threesigma
