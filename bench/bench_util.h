// Shared helpers for the figure/table reproduction benches.
//
// Every bench is a standalone binary that prints the rows of the paper
// figure it regenerates. Scale knobs come from the environment:
//   THREESIGMA_BENCH_SCALE=quick|default|full   (workload length multiplier;
//       "full" approximates the paper's 5-hour windows)
//   THREESIGMA_SEED=<n>
//   THREESIGMA_FAULT_MTTF=<s>            (node mean time to failure; 0 = off)
//   THREESIGMA_FAULT_MTTR=<s>            (node mean time to repair)
//   THREESIGMA_FAULT_KILL_PROB=<p>       (per-run task-fault kill probability)
//   THREESIGMA_FAULT_STRAGGLER_PROB=<p>  (per-run straggler probability)
//   THREESIGMA_FAULT_STRAGGLER_FACTOR=<f> (max straggler inflation)
//   THREESIGMA_FAULT_STALL_PROB=<p>      (per-cycle scheduler-stall probability)
//   THREESIGMA_FAULT_SEED=<n>            (fault RNG seed, independent of
//       THREESIGMA_SEED so churn stays fixed across workload seeds)
//   THREESIGMA_OBS_TRACE=<path>          (Chrome trace_event JSON sink)
//   THREESIGMA_OBS_TRACE_BIN=<path>      (binary span trace sink)
//   THREESIGMA_OBS_PHASE_CSV=<path>      (per-cycle phase-latency CSV sink)
//   THREESIGMA_OBS_DECISIONS_CSV=<path>  (per-cycle decision-log CSV sink)
//   THREESIGMA_OBS_METRICS=<path>        (metrics-registry text dump sink)
//   THREESIGMA_OBS_RING=<n>              (span ring capacity)

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/table.h"
#include "src/core/experiment.h"

namespace threesigma {

// The paper's SC256/RC256 stand-in: 4 placement groups x 64 nodes.
inline ClusterConfig Cluster256() { return ClusterConfig::Uniform(4, 64); }

// Overlays the THREESIGMA_FAULT_* environment knobs onto `faults` (leaves the
// passed-in values when unset, so benches can set programmatic defaults).
inline void ApplyFaultEnv(FaultOptions* faults) {
  faults->node_mttf = GetEnvDouble("THREESIGMA_FAULT_MTTF", faults->node_mttf);
  faults->node_mttr = GetEnvDouble("THREESIGMA_FAULT_MTTR", faults->node_mttr);
  faults->task_kill_prob = GetEnvDouble("THREESIGMA_FAULT_KILL_PROB", faults->task_kill_prob);
  faults->straggler_prob =
      GetEnvDouble("THREESIGMA_FAULT_STRAGGLER_PROB", faults->straggler_prob);
  faults->straggler_factor =
      GetEnvDouble("THREESIGMA_FAULT_STRAGGLER_FACTOR", faults->straggler_factor);
  faults->cycle_stall_prob =
      GetEnvDouble("THREESIGMA_FAULT_STALL_PROB", faults->cycle_stall_prob);
  faults->seed = static_cast<uint64_t>(
      GetEnvInt("THREESIGMA_FAULT_SEED", static_cast<int64_t>(faults->seed)));
}

// Overlays the THREESIGMA_OBS_* knobs (knob table in src/obs/obs.h) and, the
// first time any sink is configured, registers an atexit flush so every bench
// writes its sinks on normal exit without per-main plumbing.
inline void ApplyObsEnv(obs::Options* options) {
  obs::ApplyEnv(options);
  if (!options->any()) {
    return;
  }
  static const bool registered = [] {
    std::atexit([] {
      std::string error;
      if (!obs::Flush(&error)) {
        std::cerr << "observability export failed: " << error << "\n";
      }
    });
    return true;
  }();
  (void)registered;
}

// The GOOGLE-scale cluster for Fig. 12 (12,584 nodes ~ the trace's 12,583).
inline ClusterConfig ClusterGoogleScale() { return ClusterConfig::Uniform(8, 1573); }

// Baseline experiment configuration; `base_hours` is the workload length at
// default scale (the paper's counterpart is usually 2 or 5 hours).
inline ExperimentConfig MakeE2EConfig(double base_hours, double load = 1.4) {
  ExperimentConfig config;
  config.cluster = Cluster256();
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Hours(base_hours * BenchScale());
  config.workload.load = load;
  config.workload.seed = BenchSeed();
  config.sim.cycle_period = 10.0;
  config.sim.reactive_min_gap = 2.0;
  config.sim.seed = BenchSeed();
  config.sched.cycle_period = config.sim.cycle_period;
  ApplyFaultEnv(&config.sim.faults);
  ApplyObsEnv(&config.obs);
  return config;
}

inline std::vector<std::string> MetricsHeaders() {
  return {"system",       "SLO miss %",  "goodput (M-hr)", "SLO gp (M-hr)",
          "BE gp (M-hr)", "BE lat (s)",  "preempts",       "abandoned"};
}

inline std::vector<std::string> MetricsRow(const RunMetrics& m) {
  return {m.system,
          TablePrinter::Fmt(m.slo_miss_rate_percent, 1),
          TablePrinter::Fmt(m.goodput_machine_hours, 1),
          TablePrinter::Fmt(m.slo_goodput_machine_hours, 1),
          TablePrinter::Fmt(m.be_goodput_machine_hours, 1),
          TablePrinter::Fmt(m.mean_be_latency_seconds, 0),
          std::to_string(m.preemptions),
          std::to_string(m.abandoned)};
}

inline void PrintHeaderBlock(const std::string& title, const std::string& paper_ref,
                             const GeneratedWorkload& workload) {
  std::cout << "==== " << title << " ====\n"
            << paper_ref << "\n"
            << "jobs=" << workload.jobs.size() << " pretrain=" << workload.pretrain.size()
            << " offered_load=" << TablePrinter::Fmt(workload.offered_load, 2)
            << " scale=" << GetEnvString("THREESIGMA_BENCH_SCALE", "default")
            << " seed=" << BenchSeed() << "\n\n";
}

}  // namespace threesigma

#endif  // BENCH_BENCH_UTIL_H_
