// Solver micro-benchmarks (google-benchmark): simplex scaling with problem
// size, branch-and-bound on scheduler-shaped binary programs, and the
// §4.3.6 warm-start ablation.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/sharded_milp.h"
#include "src/solver/simplex.h"
#include "src/solver/synthetic.h"

namespace threesigma {
namespace {

void BM_SimplexSchedulerShaped(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(jobs, 12, 24, rng, &int_vars);
  for (auto _ : state) {
    const LpSolution sol = SolveLp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["vars"] = model.num_variables();
  state.counters["rows"] = model.num_rows();
}
BENCHMARK(BM_SimplexSchedulerShaped)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MilpSchedulerShaped(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(jobs, 12, 24, rng, &int_vars);
  MilpOptions options;
  options.max_nodes = 6;
  options.time_limit_seconds = 0.1;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpSchedulerShaped)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Thread-count sweep over the wave-parallel branch-and-bound (deep node
// budget so the search is LP-bound). The solution is identical at every
// thread count (deterministic waves); only the wall clock should move.
// Speedup is only visible on multi-core hardware.
void BM_MilpParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(64, 12, 24, rng, &int_vars);
  ThreadPool pool(threads);
  MilpOptions options;
  options.max_nodes = 200;
  options.pool = &pool;
  int64_t nodes = 0;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    nodes += sol.nodes_explored;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["nodes/s"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_MilpParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Warm-start ablation: solving with the previous solution as the incumbent
// vs from scratch (the paper's primary scalability optimization).
void BM_MilpWarmStart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(32, 12, 24, rng, &int_vars);
  MilpSolver solver(model, int_vars);
  MilpOptions cold;
  cold.max_nodes = 40;
  const MilpSolution reference = solver.Solve(cold);
  MilpOptions options;
  options.max_nodes = 40;
  if (warm) {
    options.warm_start = reference.values;
  }
  for (auto _ : state) {
    MilpSolver s(model, int_vars);
    const MilpSolution sol = s.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.SetLabel(warm ? "warm-start" : "cold");
}
BENCHMARK(BM_MilpWarmStart)->Arg(0)->Arg(1);

// Basis warm-starting ablation on the branch-and-bound node stream: every
// child re-optimizes from its parent's basis with a handful of dual pivots
// instead of a cold Phase-1/Phase-2 solve. Arg(1) = warm, Arg(0) = cold;
// THREESIGMA_SOLVER_WARMSTART=0 forces the cold path for A/B runs without
// recompiling. Reported counters:
//   pivots/s       — total simplex pivots (phase 1 + phase 2 + dual) per sec
//   lp_iters       — mean total pivots per node-stream replay
//   ftran, btran   — sparse eta-file solves per replay
//   refactor       — basis reinversions per replay
//   dual/warmnode  — mean dual pivots per warm-started node
void BM_BnbNodeStreamBasis(benchmark::State& state) {
  const bool warm = state.range(0) != 0 && SolverWarmstartEnv();
  Rng rng(515);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(24, 3, 8, rng, &int_vars);
  MilpOptions options;
  options.basis_warmstart = warm;
  options.max_nodes = 200;
  int64_t pivots = 0, ftran = 0, btran = 0, refactor = 0;
  int64_t dual = 0, warm_nodes = 0, replays = 0;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    pivots += sol.lp_iterations;
    ftran += sol.ftran_count;
    btran += sol.btran_count;
    refactor += sol.refactorizations;
    dual += sol.lp_dual_iterations;
    warm_nodes += sol.warm_started_nodes;
    ++replays;
    benchmark::DoNotOptimize(sol.objective);
  }
  const double n = static_cast<double>(replays);
  state.counters["pivots/s"] =
      benchmark::Counter(static_cast<double>(pivots), benchmark::Counter::kIsRate);
  state.counters["lp_iters"] = static_cast<double>(pivots) / n;
  state.counters["ftran"] = static_cast<double>(ftran) / n;
  state.counters["btran"] = static_cast<double>(btran) / n;
  state.counters["refactor"] = static_cast<double>(refactor) / n;
  state.counters["dual/warmnode"] =
      warm_nodes > 0 ? static_cast<double>(dual) / static_cast<double>(warm_nodes) : 0.0;
  state.SetLabel(warm ? "warm-basis" : "cold-basis");
}
BENCHMARK(BM_BnbNodeStreamBasis)->Arg(0)->Arg(1);

// The decomposable regime of the per-cycle MILP: `components` independent
// scheduler-shaped blocks (jobs whose eligible groups partition into disjoint
// sets share no capacity rows). Each block has its own jobs, demand rows, and
// capacity rows, so the constraint graph has exactly `components` connected
// components.
LpModel MultiComponentModel(int components, int jobs_per_component, int options_per_job,
                            int capacity_rows, Rng& rng, std::vector<int>* int_vars) {
  LpModel model;
  for (int k = 0; k < components; ++k) {
    std::vector<std::vector<LpTerm>> capacity(static_cast<size_t>(capacity_rows));
    for (int j = 0; j < jobs_per_component; ++j) {
      std::vector<LpTerm> demand;
      for (int o = 0; o < options_per_job; ++o) {
        const int var = model.AddVariable(0.0, 1.0, rng.Uniform(0.1, 10.0));
        int_vars->push_back(var);
        demand.push_back({var, 1.0});
        for (int c = 0; c < capacity_rows; ++c) {
          if (rng.Bernoulli(0.4)) {
            capacity[static_cast<size_t>(c)].push_back({var, rng.Uniform(0.5, 4.0)});
          }
        }
      }
      model.AddRow(RowSense::kLessEqual, 1.0, std::move(demand));
    }
    for (int c = 0; c < capacity_rows; ++c) {
      model.AddRow(RowSense::kLessEqual, rng.Uniform(2.0, 8.0),
                   std::move(capacity[static_cast<size_t>(c)]));
    }
  }
  return model;
}

// Shard decomposition ablation: monolithic vs sharded solve of a K-component
// program, both run to optimality under a non-binding node cap so the node
// counts are the honest work metric (B&B trees on separable programs multiply
// across blocks; decomposition solves each block's tree once). The "nodes"
// counter is the headline: sharded total nodes should drop superlinearly as
// `components` grows, while the answers stay bitwise identical.
void BM_MilpShardDecomposition(benchmark::State& state) {
  const int components = static_cast<int>(state.range(0));
  const bool sharded = state.range(1) != 0;
  Rng rng(99);
  std::vector<int> int_vars;
  const LpModel model = MultiComponentModel(components, 6, 3, 4, rng, &int_vars);
  ThreadPool pool(4);
  // Cap far above the sharded need; the monolithic tree may hit it at high
  // component counts, making the reported reduction a lower bound.
  constexpr int64_t kNodeCap = 50000;
  int64_t nodes = 0;
  int64_t replays = 0;
  double objective = 0.0;
  if (sharded) {
    ShardedMilpOptions options;
    options.base.max_nodes = kNodeCap;
    options.base.pool = &pool;
    for (auto _ : state) {
      const ShardedMilpSolution sol = SolveShardedMilp(model, int_vars, options);
      nodes += sol.merged.nodes_explored;
      ++replays;
      objective = sol.merged.objective;
      benchmark::DoNotOptimize(sol.merged.objective);
    }
  } else {
    MilpOptions options;
    options.max_nodes = kNodeCap;
    options.pool = &pool;
    for (auto _ : state) {
      MilpSolver solver(model, int_vars);
      const MilpSolution sol = solver.Solve(options);
      nodes += sol.nodes_explored;
      ++replays;
      objective = sol.objective;
      benchmark::DoNotOptimize(sol.objective);
    }
  }
  state.counters["components"] = components;
  state.counters["nodes"] = static_cast<double>(nodes) / static_cast<double>(replays);
  state.counters["objective"] = objective;
  state.SetLabel(sharded ? "sharded" : "monolithic");
}
BENCHMARK(BM_MilpShardDecomposition)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

void BM_SimplexDense(benchmark::State& state) {
  // Dense random LP: stresses pricing and the basis inverse.
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  LpModel model;
  for (int i = 0; i < n; ++i) {
    model.AddVariable(0.0, 1.0, rng.Uniform(-1.0, 5.0));
  }
  for (int r = 0; r < n / 2; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back({i, rng.Uniform(0.0, 2.0)});
    }
    model.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, n / 4.0), std::move(terms));
  }
  for (auto _ : state) {
    const LpSolution sol = SolveLp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(64)->Arg(128);

}  // namespace
}  // namespace threesigma

BENCHMARK_MAIN();
