// Differential test layer for the wave-parallel branch-and-bound solver.
//
// Two hundred seeded random 0/1 programs (up to 12 binary variables, mixed
// <= and >= rows, positive and negative objective coefficients) are solved
//   (a) by exhaustive 2^n enumeration,
//   (b) by MilpSolver on 1 thread,
//   (c) by MilpSolver on 4 threads,
// and all three must agree on feasibility status and optimal objective to
// 1e-6. (b) and (c) must additionally agree *exactly* — same values vector,
// same node count, same incumbent-improvement objectives — because the wave
// schedule is deterministic in the wave width and independent of thread count.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/synthetic.h"

namespace threesigma {
namespace {

struct BruteForceResult {
  bool feasible = false;
  double objective = 0.0;
};

// Exhaustive optimum of a pure-binary program; infeasible when no assignment
// satisfies every row.
BruteForceResult BruteForceBinary(const LpModel& model) {
  const int n = model.num_variables();
  BruteForceResult best;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    if (!model.IsFeasible(x)) {
      continue;
    }
    const double obj = model.ObjectiveValue(x);
    if (!best.feasible || obj > best.objective) {
      best.feasible = true;
      best.objective = obj;
    }
  }
  return best;
}

// A random 0/1 program with the scheduler's row shapes plus adversarial
// extras: >= rows (preemption-credit-like), negative objective terms, and
// occasional infeasible row combinations.
LpModel RandomBinaryProgram(Rng& rng, std::vector<int>* int_vars) {
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  LpModel model;
  for (int i = 0; i < n; ++i) {
    const int var = model.AddVariable(0.0, 1.0, rng.Uniform(-4.0, 10.0));
    int_vars->push_back(var);
  }
  const int rows = static_cast<int>(rng.UniformInt(1, 8));
  for (int r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({i, rng.Uniform(-2.0, 4.0)});
      }
    }
    if (terms.empty()) {
      terms.push_back({static_cast<int>(rng.UniformInt(0, n - 1)), 1.0});
    }
    if (rng.Bernoulli(0.25)) {
      // A >= row; a tight rhs sometimes makes the whole program infeasible,
      // which the solver must also detect at every thread count.
      model.AddRow(RowSense::kGreaterEqual, rng.Uniform(0.0, 3.0), std::move(terms));
    } else {
      model.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
    }
  }
  return model;
}

TEST(MilpDifferentialTest, MatchesBruteForceAt1And4Threads) {
  constexpr int kPrograms = 200;
  ThreadPool pool(4);
  int infeasible_seen = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    const BruteForceResult reference = BruteForceBinary(model);

    // Unbudgeted search: the solver must prove optimality or infeasibility.
    MilpOptions serial;
    MilpOptions parallel;
    parallel.pool = &pool;

    MilpSolver solver1(model, int_vars);
    const MilpSolution s1 = solver1.Solve(serial);
    MilpSolver solver4(model, int_vars);
    const MilpSolution s4 = solver4.Solve(parallel);

    if (!reference.feasible) {
      ++infeasible_seen;
      EXPECT_EQ(s1.status, MilpStatus::kInfeasible) << "program " << p;
      EXPECT_EQ(s4.status, MilpStatus::kInfeasible) << "program " << p;
      continue;
    }
    ASSERT_EQ(s1.status, MilpStatus::kOptimal) << "program " << p;
    ASSERT_EQ(s4.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_NEAR(s1.objective, reference.objective, 1e-6) << "program " << p;
    EXPECT_NEAR(s4.objective, reference.objective, 1e-6) << "program " << p;
    // The returned point must itself be feasible and integral.
    EXPECT_TRUE(model.IsFeasible(s1.values)) << "program " << p;
    for (double v : s1.values) {
      EXPECT_NEAR(v, std::round(v), 1e-6) << "program " << p;
    }

    // Thread-count independence is exact, not approximate: identical values,
    // explored-node count, and incumbent trajectory.
    EXPECT_EQ(s1.values, s4.values) << "program " << p;
    EXPECT_EQ(s1.nodes_explored, s4.nodes_explored) << "program " << p;
    EXPECT_EQ(s1.incumbent_improvements, s4.incumbent_improvements) << "program " << p;
  }
  // The generator must actually exercise the infeasible path.
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_LT(infeasible_seen, kPrograms / 2);
}

// Node budgets truncate the search identically at every thread count: the
// wave schedule (and therefore where the budget lands) is thread-independent.
TEST(MilpDifferentialTest, BudgetedSearchIsThreadCountInvariant) {
  ThreadPool pool(4);
  for (int p = 0; p < 40; ++p) {
    Rng rng(9000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);

    MilpOptions serial;
    serial.max_nodes = 5;
    MilpOptions parallel = serial;
    parallel.pool = &pool;

    MilpSolver solver1(model, int_vars);
    const MilpSolution s1 = solver1.Solve(serial);
    MilpSolver solver4(model, int_vars);
    const MilpSolution s4 = solver4.Solve(parallel);

    EXPECT_EQ(s1.status, s4.status) << "program " << p;
    EXPECT_EQ(s1.nodes_explored, s4.nodes_explored) << "program " << p;
    EXPECT_EQ(s1.max_queue_depth, s4.max_queue_depth) << "program " << p;
    if (s1.status != MilpStatus::kInfeasible) {
      EXPECT_DOUBLE_EQ(s1.objective, s4.objective) << "program " << p;
      EXPECT_EQ(s1.values, s4.values) << "program " << p;
    }
  }
}

// The warm start must survive parallelization: when it is optimal, every
// thread count returns it unchanged and reports warm_start_returned.
TEST(MilpDifferentialTest, WarmStartReturnedIdenticallyAcrossThreadCounts) {
  ThreadPool pool(4);
  for (int p = 0; p < 20; ++p) {
    Rng rng(500 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    MilpSolver solver(model, int_vars);
    const MilpSolution cold = solver.Solve();
    if (cold.status != MilpStatus::kOptimal) {
      continue;
    }
    MilpOptions serial;
    serial.warm_start = cold.values;
    MilpOptions parallel = serial;
    parallel.pool = &pool;
    MilpSolver solver1(model, int_vars);
    const MilpSolution s1 = solver1.Solve(serial);
    MilpSolver solver4(model, int_vars);
    const MilpSolution s4 = solver4.Solve(parallel);
    ASSERT_EQ(s1.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_DOUBLE_EQ(s1.objective, cold.objective) << "program " << p;
    EXPECT_EQ(s1.values, s4.values) << "program " << p;
    EXPECT_EQ(s1.warm_start_returned, s4.warm_start_returned) << "program " << p;
  }
}

// Basis warm-starting is a pure accelerator: across the same 200 random 0/1
// programs, warm and cold runs must agree on status and objective, and —
// because the continuous random objective coefficients make the binary
// optimum unique almost surely — on the exact solution vector. (Node counts
// are NOT compared: a warm LP may surface a different optimal vertex of a
// degenerate relaxation and legitimately reorder the tree.)
TEST(MilpDifferentialTest, BasisWarmstartNeverChangesTheAnswer) {
  constexpr int kPrograms = 200;
  int warm_nodes_total = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);

    MilpOptions warm_options;  // basis_warmstart defaults on.
    MilpOptions cold_options;
    cold_options.basis_warmstart = false;

    MilpSolver warm_solver(model, int_vars);
    const MilpSolution warm = warm_solver.Solve(warm_options);
    MilpSolver cold_solver(model, int_vars);
    const MilpSolution cold = cold_solver.Solve(cold_options);

    ASSERT_EQ(warm.status, cold.status) << "program " << p;
    if (warm.status == MilpStatus::kInfeasible) {
      continue;
    }
    EXPECT_DOUBLE_EQ(warm.objective, cold.objective) << "program " << p;
    EXPECT_EQ(warm.values, cold.values) << "program " << p;
    EXPECT_TRUE(model.IsFeasible(warm.values)) << "program " << p;
    EXPECT_EQ(cold.warm_started_nodes, 0) << "program " << p;
    warm_nodes_total += warm.warm_started_nodes;
  }
  // The sweep must actually exercise basis reuse, not just trivially agree.
  EXPECT_GT(warm_nodes_total, 0);
}

// Basis warm-starting composes with thread-count determinism: warm runs at 1
// and 4 threads are exactly identical (values, node counts, trajectories),
// and so are the cold runs the warm ones are measured against.
TEST(MilpDifferentialTest, BasisWarmstartIsThreadCountInvariant) {
  ThreadPool pool(4);
  for (int p = 0; p < 60; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);

    for (const bool warm : {true, false}) {
      MilpOptions serial;
      serial.basis_warmstart = warm;
      MilpOptions parallel = serial;
      parallel.pool = &pool;

      MilpSolver solver1(model, int_vars);
      const MilpSolution s1 = solver1.Solve(serial);
      MilpSolver solver4(model, int_vars);
      const MilpSolution s4 = solver4.Solve(parallel);

      SCOPED_TRACE(::testing::Message() << "program " << p << (warm ? " warm" : " cold"));
      EXPECT_EQ(s1.status, s4.status);
      EXPECT_EQ(s1.nodes_explored, s4.nodes_explored);
      EXPECT_EQ(s1.lp_iterations, s4.lp_iterations);
      EXPECT_EQ(s1.warm_started_nodes, s4.warm_started_nodes);
      if (s1.status != MilpStatus::kInfeasible) {
        EXPECT_DOUBLE_EQ(s1.objective, s4.objective);
        EXPECT_EQ(s1.values, s4.values);
      }
    }
  }
}

// Cross-cycle root warm start: over sequences of perturbed scheduler-shaped
// models, the branch-and-bound run whose root starts from last cycle's root
// basis, mapped by key, must reach the cold run's MILP optimum. max_nodes = 0
// lifts the node budget, so both searches prove optimality.
TEST(MilpDifferentialTest, MappedRootBasisReachesColdObjective) {
  int warm_roots = 0;
  int roots = 0;
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    SchedulerShapedCycles cycles(6, 3, 4, seed);
    LpBasis kept;
    for (int cycle = 0; cycle < 10; ++cycle) {
      if (cycle > 0) {
        cycles.Next();
      }
      MilpOptions cold_options;
      cold_options.max_nodes = 0;
      MilpOptions warm_options = cold_options;
      warm_options.root_basis = cycles.MapBasis(kept);
      MilpSolver cold_solver(cycles.model(), cycles.int_vars());
      const MilpSolution cold = cold_solver.Solve(cold_options);
      MilpSolver warm_solver(cycles.model(), cycles.int_vars());
      const MilpSolution warm = warm_solver.Solve(warm_options);

      SCOPED_TRACE(::testing::Message() << "seed " << seed << " cycle " << cycle);
      ASSERT_EQ(warm.status, MilpStatus::kOptimal);
      ASSERT_EQ(cold.status, MilpStatus::kOptimal);
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 * std::max(1.0, std::fabs(cold.objective)));
      EXPECT_TRUE(cycles.model().IsFeasible(warm.values));
      EXPECT_FALSE(cold.root_warm);
      if (cycle > 0) {
        ++roots;
        warm_roots += warm.root_warm ? 1 : 0;
      }
      kept = warm.root_basis;
    }
  }
  EXPECT_GE(warm_roots * 10, roots * 9) << warm_roots << " of " << roots;
}

// Children resume their parent's factored state (basis, eta file, reduced
// costs) instead of reinverting a status vector. Over full trees
// (max_nodes = 0) of scheduler-shaped models, that search must prove the
// same optimum as the one with basis warm-starting off, and be the same
// search at 1 and 4 threads.
TEST(MilpDifferentialTest, FactoredChildStartsReachColdObjectiveOnFullTrees) {
  ThreadPool pool(4);
  int64_t warm_nodes = 0;
  int64_t nodes = 0;
  for (uint64_t seed = 21; seed <= 40; ++seed) {
    SchedulerShapedCycles cycles(10, 4, 6, seed);
    MilpOptions cold_options;
    cold_options.max_nodes = 0;
    cold_options.basis_warmstart = false;
    MilpOptions hot_options;
    hot_options.max_nodes = 0;
    MilpOptions parallel_options = hot_options;
    parallel_options.pool = &pool;
    MilpSolver cold_solver(cycles.model(), cycles.int_vars());
    const MilpSolution cold = cold_solver.Solve(cold_options);
    MilpSolver hot_solver(cycles.model(), cycles.int_vars());
    const MilpSolution hot = hot_solver.Solve(hot_options);
    MilpSolver parallel_solver(cycles.model(), cycles.int_vars());
    const MilpSolution parallel = parallel_solver.Solve(parallel_options);

    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ASSERT_EQ(cold.status, MilpStatus::kOptimal);
    ASSERT_EQ(hot.status, MilpStatus::kOptimal);
    EXPECT_NEAR(hot.objective, cold.objective, 1e-9 * std::max(1.0, std::fabs(cold.objective)));
    EXPECT_TRUE(cycles.model().IsFeasible(hot.values));
    EXPECT_EQ(parallel.nodes_explored, hot.nodes_explored);
    EXPECT_EQ(parallel.lp_iterations, hot.lp_iterations);
    EXPECT_EQ(parallel.values, hot.values);
    warm_nodes += hot.warm_started_nodes;
    nodes += hot.nodes_explored;
  }
  // Every node but the roots (and children of a parent that could not
  // export) resumes a factored start.
  EXPECT_GE(warm_nodes * 10, nodes * 9) << warm_nodes << " of " << nodes;
}

}  // namespace
}  // namespace threesigma
