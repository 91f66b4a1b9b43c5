// The benchmark's workloads. RunInstance runs one seeded instance of one
// workload (set-up, then the timed run to drain), single-threaded, and
// returns everything measured plus the correctness verdict; run.py runs
// several instances per benchmark run and aggregates them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

struct InstanceOptions {
  std::string workload;
  uint64_t seed = 1;
  // Traced instances turn on the CycleProfiler to split each cycle into
  // phases; untraced ones time only what the end-to-end metrics need.
  bool traced = false;
  // Multiplies the workload's simulated window (the self-test runs the
  // same code paths at 0.25).
  double scale = 1.0;
};

struct InstanceResult {
  // Set-up (seconds / ms): workload generation, predictor pretraining, and
  // construction of the scheduler/simulator/service up to the first cycle.
  double setup_s = 0.0;
  double generate_ms = 0.0;
  double pretrain_ms = 0.0;
  // First cycle to drain.
  double wall_s = 0.0;
  // Peak resident set size of the instance's process (MiB).
  double peak_rss_mb = 0.0;

  // Per-call latency samples.
  Samples cycle_ms;
  Samples submit_us;
  Samples query_us;
  Samples whatif_ms;
  Samples arrival_us;  // Scheduler::OnJobArrival.
  Samples solve_ms;    // Scheduler-reported solver time per solving cycle.
  double solve_seconds = 0.0;

  // Per-layer busy time (ms, whole instance).
  double capacity_ms = 0.0;
  double valuation_ms = 0.0;
  double build_ms = 0.0;
  double placement_ms = 0.0;
  double sim_self_ms = 0.0;
  double svc_handle_ms = 0.0;
  double svc_step_ms = 0.0;
  double snapshot_save_ms = 0.0;
  double twin_sweep_ms = 0.0;

  WorkCounts counts;

  // Schedule quality (deterministic per seed).
  double slo_met_pct = 0.0;
  double goodput_mhr = 0.0;
  double be_latency_mean_s = 0.0;
  int64_t abandoned = 0;
  int64_t unfinished = 0;

  // Contract accounting: operations attempted and failed.
  int64_t attempted = 0;
  int64_t failed = 0;

  // Hash over every job's final outcome (id, status, start, finish, group,
  // preemptions), in id order.
  uint64_t outcome_hash = 0;
  // Correctness violations; empty means the instance is correct.
  std::vector<std::string> errors;
};

bool IsWorkload(const std::string& name);

InstanceResult RunInstance(const InstanceOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
