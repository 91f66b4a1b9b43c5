// Fig. 12 — scalability on a >12,500-node cluster (GOOGLE) under
// SCALABILITY-n workloads (n jobs/hour, load 0.95): per-cycle scheduling
// runtime and solver runtime for distribution-based vs point-based
// scheduling, plus 3σPredict lookup latency (§6.5 reports max 14 ms).
//
// Paper-reported shape: both systems' cycle times stay in the low seconds up
// to 4000 jobs/hour; distribution-based scheduling adds a moderate increase
// (more constraint terms, same number of decision variables); the solver is
// a non-trivial fraction of the cycle; predictor latency is negligible.

#include <chrono>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/stats.h"

using namespace threesigma;

namespace {

// Cycle and solver times are milliseconds: at this scale they are single-digit
// ms, which three decimals of seconds would flatten to 0.000-0.008.
std::string Ms(double seconds) { return TablePrinter::Fmt(1000.0 * seconds, 2); }

}  // namespace

int main() {
  const std::vector<int> rates = {2000, 3000, 4000};
  // Default scale runs a slice of the paper's 5-hour window; the cycle-time
  // distribution stabilizes within minutes of simulated time.
  const double hours = 0.2 * BenchScale();

  std::cout << "==== Fig. 12: scheduling-cycle and solver runtime at >12.5k nodes ====\n";
  std::cout << "Paper: cycle times low seconds; Dist moderately above Point; solver a "
               "non-trivial fraction\n"
            << "cluster=" << ClusterGoogleScale().total_nodes() << " nodes, load 0.95, "
            << "window=" << hours << "h\n\n";

  TablePrinter cycle({"jobs/hour", "Dist mean (ms)", "Dist max (ms)", "Point mean (ms)",
                      "Point max (ms)"});
  TablePrinter solver({"jobs/hour", "Dist mean (ms)", "Dist max (ms)", "Point mean (ms)",
                       "Point max (ms)", "Dist max vars", "Dist max rows"});
  for (int rate : rates) {
    ExperimentConfig config;
    config.cluster = ClusterGoogleScale();
    config.workload.duration = Hours(hours);
    config.workload.load = 0.95;
    config.workload.fixed_job_count = static_cast<int>(rate * hours);
    config.workload.seed = BenchSeed() + static_cast<uint64_t>(rate);
    config.sim.cycle_period = 10.0;
    config.sim.reactive_min_gap = 2.0;
    config.sim.seed = config.workload.seed;
    config.sched.cycle_period = config.sim.cycle_period;
    // Give the big-cluster MILP the paper's "fraction of the interval".
    config.sched.solver_time_limit_seconds = 1.0;
    config.sched.max_pending_considered = 96;
    const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);

    const RunMetrics dist = RunSystem(SystemKind::kThreeSigma, config, workload);
    const RunMetrics point = RunSystem(SystemKind::kPointRealEst, config, workload);
    cycle.AddRow({std::to_string(rate), Ms(dist.mean_cycle_seconds), Ms(dist.max_cycle_seconds),
                  Ms(point.mean_cycle_seconds), Ms(point.max_cycle_seconds)});
    solver.AddRow({std::to_string(rate), Ms(dist.mean_solver_seconds),
                   Ms(dist.max_solver_seconds), Ms(point.mean_solver_seconds),
                   Ms(point.max_solver_seconds), std::to_string(dist.max_milp_variables),
                   std::to_string(dist.max_milp_rows)});
  }
  std::cout << "(a) Scheduling cycle runtime:\n";
  cycle.Print(std::cout);
  std::cout << "\n(b) Solver runtime:\n";
  solver.Print(std::cout);

  // (c) Parallel solver + expected-capacity cache: same workload, sweeping
  // branch-and-bound worker threads (the returned schedules are identical by
  // construction; only wall clock moves, and only on multi-core hardware) and
  // toggling the incremental Eq. 3 cache.
  std::cout << "\n(c) Wave-parallel solver and capacity-cache ablation:\n";
  {
    TablePrinter par({"config", "mean solver (ms)", "speedup", "nodes/s",
                      "mean cycle (ms)", "cache hit %"});
    ExperimentConfig config;
    config.cluster = ClusterGoogleScale();
    config.workload.duration = Hours(hours);
    config.workload.load = 0.95;
    config.workload.fixed_job_count = static_cast<int>(2000 * hours);
    config.workload.seed = BenchSeed();
    config.sim.cycle_period = 10.0;
    config.sim.reactive_min_gap = 2.0;
    config.sim.seed = config.workload.seed;
    config.sched.cycle_period = config.sim.cycle_period;
    config.sched.solver_time_limit_seconds = 1.0;
    config.sched.max_pending_considered = 96;
    const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);

    double base_solver = 0.0;
    for (const int threads : {1, 2, 4}) {
      config.sched.solver_threads = threads;
      config.sched.capacity_cache = true;
      const RunMetrics m = RunSystem(SystemKind::kThreeSigma, config, workload);
      if (threads == 1) {
        base_solver = m.mean_solver_seconds;
      }
      const double speedup =
          m.mean_solver_seconds > 0.0 ? base_solver / m.mean_solver_seconds : 0.0;
      par.AddRow({std::to_string(threads) + " thread" + (threads == 1 ? "" : "s"),
                  Ms(m.mean_solver_seconds), TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(m.solver_nodes_per_second, 0),
                  Ms(m.mean_cycle_seconds),
                  TablePrinter::Fmt(100.0 * m.capacity_cache_hit_rate, 1)});
    }
    config.sched.solver_threads = 1;
    config.sched.capacity_cache = false;
    const RunMetrics nocache = RunSystem(SystemKind::kThreeSigma, config, workload);
    par.AddRow({"1 thread, no cache", Ms(nocache.mean_solver_seconds), "-",
                TablePrinter::Fmt(nocache.solver_nodes_per_second, 0),
                Ms(nocache.mean_cycle_seconds), "-"});
    // Cold-basis ablation: every branch-and-bound node solves its LP from the
    // slack basis instead of re-optimizing the parent's basis with dual pivots
    // (deterministic, but degenerate LP ties may break differently than warm).
    config.sched.capacity_cache = true;
    config.sched.solver_basis_warmstart = false;
    const RunMetrics coldbasis = RunSystem(SystemKind::kThreeSigma, config, workload);
    par.AddRow({"1 thread, cold basis", Ms(coldbasis.mean_solver_seconds), "-",
                TablePrinter::Fmt(coldbasis.solver_nodes_per_second, 0),
                Ms(coldbasis.mean_cycle_seconds),
                TablePrinter::Fmt(100.0 * coldbasis.capacity_cache_hit_rate, 1)});
    par.Print(std::cout);

    // (d) Shard decomposition sweep (--solver-shards): the same workload with
    // the per-cycle MILP split into connected components. The SCALABILITY
    // cluster is uniform, so every job is eligible on every group and cycles
    // stay one component (mean shards ~ 1, node ratio ~ 1x) — the honest
    // number for this workload. The decomposable regime (disjoint eligible
    // group sets, >= 4 components) is measured by micro_solver's
    // BM_MilpShardDecomposition, where node counts drop superlinearly; see
    // EXPERIMENTS.md.
    std::cout << "\n(d) Shard decomposition sweep (node budget unchanged; work metric is "
                 "total B&B nodes):\n";
    TablePrinter shards({"config", "mean solver (ms)", "total B&B nodes", "node ratio",
                         "mean shards", "max shard vars"});
    config.sched.solver_threads = 1;
    config.sched.capacity_cache = true;
    config.sched.solver_basis_warmstart = true;
    config.sched.solver_shards = false;
    const RunMetrics shard_off = RunSystem(SystemKind::kThreeSigma, config, workload);
    shards.AddRow({"shards off", Ms(shard_off.mean_solver_seconds),
                   std::to_string(shard_off.total_milp_nodes), "1.00", "-", "-"});
    config.sched.solver_shards = true;
    for (const int threads : {1, 4}) {
      config.sched.solver_threads = threads;
      const RunMetrics m = RunSystem(SystemKind::kThreeSigma, config, workload);
      const double ratio = m.total_milp_nodes > 0
                               ? static_cast<double>(shard_off.total_milp_nodes) /
                                     static_cast<double>(m.total_milp_nodes)
                               : 0.0;
      shards.AddRow({"shards on, " + std::to_string(threads) + " thread" +
                         (threads == 1 ? "" : "s"),
                     Ms(m.mean_solver_seconds),
                     std::to_string(m.total_milp_nodes), TablePrinter::Fmt(ratio, 2),
                     TablePrinter::Fmt(m.mean_milp_shards, 2),
                     std::to_string(m.max_milp_shard_vars)});
    }
    shards.Print(std::cout);
    config.sched.solver_shards = false;
  }

  // §6.5: 3σPredict latency at job submission. Build a loaded predictor and
  // time lookups.
  std::cout << "\n==== 3σPredict lookup latency (paper: max 14 ms) ====\n";
  {
    ExperimentConfig config;
    config.cluster = ClusterGoogleScale();
    config.workload.duration = Hours(0.2);
    config.workload.load = 0.95;
    config.workload.pretrain_jobs = 20000;
    config.workload.seed = BenchSeed();
    const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
    ThreeSigmaPredictor predictor;
    for (const JobSpec& job : workload.pretrain) {
      predictor.RecordCompletion(job.features, job.true_runtime);
    }
    RunningStats latency_us;
    for (const JobSpec& job : workload.jobs) {
      const auto t0 = std::chrono::steady_clock::now();
      const RuntimePrediction pred = predictor.Predict(job.features, job.true_runtime);
      const std::chrono::duration<double, std::micro> dt =
          std::chrono::steady_clock::now() - t0;
      latency_us.Add(dt.count());
      (void)pred;
    }
    TablePrinter t({"lookups", "mean (us)", "max (us)", "feature histories"});
    t.AddRow({std::to_string(latency_us.count()), TablePrinter::Fmt(latency_us.mean(), 1),
              TablePrinter::Fmt(latency_us.max(), 1),
              std::to_string(predictor.history_count())});
    t.Print(std::cout);
  }
  return 0;
}
