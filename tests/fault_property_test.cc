// Property tests for fault injection through the full scheduler/simulator
// stack:
//   - chaos on: two same-seed runs are byte-identical (every fault event is
//     pre-materialized or hash-drawn, so churn cannot leak nondeterminism
//     into the trace); the second run has the scheduler crosscheck on, so a
//     valuation table left stale by a fault restart's re-prediction aborts
//     it,
//   - chaos off: inert fault options (all processes disabled) change nothing
//     relative to the default-constructed options,
//   - capacity conservation: at every instant — including the instants of
//     crashes themselves — allocated tasks per group never exceed the
//     available (non-crashed) node count implied by the applied fault events.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/faults/fault_schedule.h"
#include "src/metrics/metrics.h"
#include "tests/sim_trace.h"

namespace threesigma {
namespace {

ExperimentConfig ChaosConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(4, 16);
  config.workload.duration = Minutes(20.0);
  config.workload.load = 1.3;
  config.workload.model_sample_jobs = 800;
  config.workload.pretrain_jobs = 1000;
  config.workload.seed = 11;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 11;
  config.sched.cycle_period = config.sim.cycle_period;
  // Wall-clock budgets are the one nondeterministic solver input.
  config.sched.solver_time_limit_seconds = 0.0;
  // Aggressive chaos: enough churn that several crashes land on occupied
  // nodes, plus all three hash-draw processes.
  config.sim.faults.node_mttf = 1200.0;
  config.sim.faults.node_mttr = 240.0;
  config.sim.faults.task_kill_prob = 0.05;
  config.sim.faults.straggler_prob = 0.1;
  config.sim.faults.straggler_factor = 2.5;
  config.sim.faults.cycle_stall_prob = 0.05;
  config.sim.faults.seed = 5;
  return config;
}

TEST(FaultPropertyTest, ChaosRunsAreByteReproducibleAcrossThreadCounts) {
  ExperimentConfig config = ChaosConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);

  const SimResult first = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  // Fault restarts re-predict the job, which is where valuation tables are
  // really invalidated; crosscheck mode checks every cached table against a
  // fresh rebuild (and must not move a decision).
  config.sched.crosscheck = true;
  const SimResult second = SimulateSystem(SystemKind::kThreeSigma, config, workload);

  // The chaos must actually bite for this to prove anything.
  EXPECT_GT(first.fault_node_events, 0);
  EXPECT_GT(first.tasks_killed_by_faults, 0);
  EXPECT_EQ(SimTrace(first), SimTrace(second));
}

TEST(FaultPropertyTest, InertFaultOptionsAreAStrictNoOp) {
  // Non-default but disabled knobs (probabilities zero, mttf zero) must
  // produce the exact trace of default-constructed options: chaos off cannot
  // perturb a single event.
  ExperimentConfig config = ChaosConfig();
  config.sim.faults = FaultOptions{};
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  const SimResult baseline = SimulateSystem(SystemKind::kThreeSigma, config, workload);

  config.sim.faults.node_mttf = 0.0;       // Off, despite...
  config.sim.faults.node_mttr = 123.0;     // ...non-default repair time,
  config.sim.faults.straggler_factor = 9.0;  // ...inflation cap,
  config.sim.faults.cycle_stall = 77.0;    // ...and stall length.
  config.sim.faults.seed = 999;
  const SimResult inert = SimulateSystem(SystemKind::kThreeSigma, config, workload);

  EXPECT_EQ(SimTrace(baseline), SimTrace(inert));
  const RunMetrics m = ComputeMetrics(inert, "3Sigma");
  EXPECT_EQ(m.tasks_killed_by_faults, 0);
  EXPECT_EQ(m.fault_node_events, 0);
  EXPECT_EQ(m.stalled_cycles, 0);
  EXPECT_DOUBLE_EQ(m.node_downtime_fraction, 0.0);
  EXPECT_DOUBLE_EQ(m.rework_ratio, 0.0);
}

// Gang occupancy of `group` at time t implied by the run provenance, using
// half-open [start, end) run intervals (a run evicted at a crash instant has
// already vacated at that instant).
int OccupancyAt(const SimResult& result, int group, Time t) {
  int occupied = 0;
  for (const JobRecord& job : result.jobs) {
    for (const JobRun& run : job.runs) {
      if (run.group == group && run.start <= t && t < run.end) {
        occupied += job.spec.num_tasks;
      }
    }
  }
  return occupied;
}

TEST(FaultPropertyTest, AllocationNeverExceedsAvailableNodes) {
  ExperimentConfig config = ChaosConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  for (SystemKind kind : {SystemKind::kThreeSigma, SystemKind::kPrio}) {
    const SimResult result = SimulateSystem(kind, config, workload);
    ASSERT_GT(result.fault_node_events, 0);
    ASSERT_GT(result.tasks_killed_by_faults, 0);
    const AvailabilityTimeline timeline(config.cluster, result.fault_events);

    // Check at every decision-relevant instant: run starts and ends, fault
    // event times (cycles straddling crashes included — a cycle boundary is
    // always a run start if it placed anything), and midpoints between
    // consecutive fault events to catch between-event drift.
    std::vector<Time> checkpoints;
    for (const JobRecord& job : result.jobs) {
      for (const JobRun& run : job.runs) {
        checkpoints.push_back(run.start);
        checkpoints.push_back(run.end);
      }
    }
    for (size_t i = 0; i < result.fault_events.size(); ++i) {
      checkpoints.push_back(result.fault_events[i].time);
      if (i + 1 < result.fault_events.size()) {
        checkpoints.push_back(
            0.5 * (result.fault_events[i].time + result.fault_events[i + 1].time));
      }
    }
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                      checkpoints.end());

    for (Time t : checkpoints) {
      if (t < 0.0 || t > result.end_time) {
        continue;
      }
      for (int g = 0; g < config.cluster.num_groups(); ++g) {
        EXPECT_LE(OccupancyAt(result, g, t), timeline.AvailableAt(g, t))
            << SystemName(kind) << " group " << g << " at t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace threesigma
