// Fig. 12 — scalability on a >12,500-node cluster (GOOGLE) under
// SCALABILITY-n workloads (n jobs/hour, load 0.95): per-cycle scheduling
// runtime and solver runtime for distribution-based vs point-based
// scheduling, plus 3σPredict lookup latency (§6.5 reports max 14 ms).
//
// Paper-reported shape: both systems' cycle times stay in the low seconds up
// to 4000 jobs/hour; distribution-based scheduling adds a moderate increase;
// the solver is a non-trivial fraction of the cycle; predictor latency is
// negligible. The distribution-based MILP is not the same size: table (b)
// prints both systems' largest MILP, and at the default scale (seed 42, a
// 0.2 h window) 3Sigma's had 2,044 / 4,482 / 4,067 variables and 93 / 143 /
// 135 rows at 2000 / 3000 / 4000 jobs/hour, against PointRealEst's
// 1,698 / 710 / 318 variables and 85 / 63 / 55 rows.

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
                       "Point max (ms)", "Dist max vars", "Dist max rows", "Point max vars",
                       "Point max rows"});
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
    cycle.AddRow({std::to_string(rate), Ms(dist.mean_cycle_seconds),
                  Ms(dist.cycle_max.cycle_seconds), Ms(point.mean_cycle_seconds),
                  Ms(point.cycle_max.cycle_seconds)});
    solver.AddRow({std::to_string(rate), Ms(dist.mean_solver_seconds),
                   Ms(dist.cycle_max.solver_seconds), Ms(point.mean_solver_seconds),
                   Ms(point.cycle_max.solver_seconds),
                   std::to_string(dist.cycle_max.milp_variables),
                   std::to_string(dist.cycle_max.milp_rows),
                   std::to_string(point.cycle_max.milp_variables),
                   std::to_string(point.cycle_max.milp_rows)});
  }
  std::cout << "(a) Scheduling cycle runtime:\n";
  cycle.Print(std::cout);
  std::cout << "\n(b) Solver runtime:\n";
  solver.Print(std::cout);

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
