// Solver micro-benchmarks (google-benchmark): simplex scaling with problem
// size, branch-and-bound on scheduler-shaped binary programs, the §4.3.6
// warm-start ablation, and the cross-cycle root warm start.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
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
    MilpSolver solver(LpCore(model), int_vars);
    const MilpSolution sol = solver.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpSchedulerShaped)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Warm-start ablation: solving with the previous solution as the incumbent
// vs from scratch (the paper's primary scalability optimization).
void BM_MilpWarmStart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(32, 12, 24, rng, &int_vars);
  MilpSolver solver(LpCore(model), int_vars);
  MilpOptions cold;
  cold.max_nodes = 40;
  const MilpSolution reference = solver.Solve(cold);
  MilpOptions options;
  options.max_nodes = 40;
  if (warm) {
    options.warm_start = reference.values;
  }
  for (auto _ : state) {
    MilpSolver s(LpCore(model), int_vars);
    const MilpSolution sol = s.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.SetLabel(warm ? "warm-start" : "cold");
}
BENCHMARK(BM_MilpWarmStart)->Arg(0)->Arg(1);

// Basis warm-starting ablation on the branch-and-bound node stream: every
// child resumes its parent's factored state with a handful of dual pivots
// instead of a cold Phase-1/Phase-2 solve. Arg(1) = warm, Arg(0) = cold.
// Reported counters:
//   pivots/s       — total simplex pivots (phase 1 + phase 2 + dual) per sec
//   lp_iters       — mean total pivots per node-stream replay
//   ftran, btran   — sparse eta-file solves per replay
//   refactor       — basis reinversions per replay
//   dual/warmnode  — mean dual pivots per warm-started node
void BM_BnbNodeStreamBasis(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Rng rng(515);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(24, 3, 8, rng, &int_vars);
  MilpOptions options;
  options.basis_warmstart = warm;
  options.max_nodes = 200;
  int64_t pivots = 0, ftran = 0, btran = 0, refactor = 0;
  int64_t dual = 0, warm_nodes = 0, replays = 0;
  for (auto _ : state) {
    MilpSolver solver(LpCore(model), int_vars);
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

// Cross-cycle root warm start: the root LPs of a seeded sequence of
// perturbed scheduler-shaped cycle models (SchedulerShapedCycles), solved
// cold from a slack basis or from the previous cycle's optimal root basis
// mapped by key, as the branch-and-bound root runs it. Arg(1) = keyed warm,
// Arg(0) = cold.
// Reported counters:
//   pivots/root    — mean simplex pivots per root LP
//   us/root        — mean wall microseconds per root LP
//   warm/root      — share of roots that finished from the start basis
void BM_RootAcrossCycles(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  constexpr int kCycles = 24;
  SchedulerShapedCycles cycles(48, 12, 24, 2024);
  std::vector<LpModel> models;
  std::vector<LpBasis> mapped;
  LpSolution previous = SolveLp(cycles.model());
  for (int c = 0; c < kCycles; ++c) {
    cycles.Next();
    models.push_back(cycles.model());
    mapped.push_back(cycles.MapBasis(previous.basis));
    previous = SolveLp(cycles.model());
  }
  int64_t pivots = 0, roots = 0, warm_roots = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    for (size_t c = 0; c < models.size(); ++c) {
      SimplexOptions options;
      if (warm) {
        options.start_basis = mapped[c];
      }
      const auto start = std::chrono::steady_clock::now();
      const LpSolution sol = SolveLp(models[c], options);
      seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      pivots += sol.iterations;
      warm_roots += sol.stats.warm_basis_used ? 1 : 0;
      ++roots;
      benchmark::DoNotOptimize(sol.objective);
    }
  }
  const double n = static_cast<double>(roots);
  state.counters["pivots/root"] = static_cast<double>(pivots) / n;
  state.counters["us/root"] = 1e6 * seconds / n;
  state.counters["warm/root"] = static_cast<double>(warm_roots) / n;
  state.SetLabel(warm ? "keyed-warm" : "cold");
}
BENCHMARK(BM_RootAcrossCycles)->Arg(0)->Arg(1);

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
