// Differential test layer for the branch-and-bound solver.
//
// Two hundred seeded random 0/1 programs (up to 12 binary variables, mixed
// <= and >= rows, positive and negative objective coefficients) are solved
// by exhaustive 2^n enumeration and by MilpSolver, which must agree on
// feasibility status and optimal objective to 1e-6. The other cases check
// the warm starts (incumbent, cross-cycle root basis, factored child starts)
// against cold solves.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
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
      // which the solver must also detect.
      model.AddRow(RowSense::kGreaterEqual, rng.Uniform(0.0, 3.0), std::move(terms));
    } else {
      model.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
    }
  }
  return model;
}

TEST(MilpDifferentialTest, MatchesBruteForceAt1And4Threads) {
  constexpr int kPrograms = 200;
  int infeasible_seen = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    const BruteForceResult reference = BruteForceBinary(model);

    // Unbudgeted search: the solver must prove optimality or infeasibility.
    MilpSolver solver(model, int_vars);
    const MilpSolution s1 = solver.Solve();

    if (!reference.feasible) {
      ++infeasible_seen;
      EXPECT_EQ(s1.status, MilpStatus::kInfeasible) << "program " << p;
      continue;
    }
    ASSERT_EQ(s1.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_NEAR(s1.objective, reference.objective, 1e-6) << "program " << p;
    // The returned point must itself be feasible and integral.
    EXPECT_TRUE(model.IsFeasible(s1.values)) << "program " << p;
    for (double v : s1.values) {
      EXPECT_NEAR(v, std::round(v), 1e-6) << "program " << p;
    }
  }
  // The generator must actually exercise the infeasible path.
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_LT(infeasible_seen, kPrograms / 2);
}

// An optimal warm start comes back unchanged: the objective and, since the
// random objectives make the optimum unique, the exact point. (The tree may
// re-find that point by rounding, so warm_start_returned is not asserted.)
TEST(MilpDifferentialTest, WarmStartReturnedIdenticallyAcrossThreadCounts) {
  for (int p = 0; p < 20; ++p) {
    Rng rng(500 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    MilpSolver solver(model, int_vars);
    const MilpSolution cold = solver.Solve();
    if (cold.status != MilpStatus::kOptimal) {
      continue;
    }
    MilpOptions options;
    options.warm_start = cold.values;
    MilpSolver warm_solver(model, int_vars);
    const MilpSolution s1 = warm_solver.Solve(options);
    ASSERT_EQ(s1.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_DOUBLE_EQ(s1.objective, cold.objective) << "program " << p;
    EXPECT_EQ(s1.values, cold.values) << "program " << p;
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
// same optimum as the one with basis warm-starting off.
TEST(MilpDifferentialTest, FactoredChildStartsReachColdObjectiveOnFullTrees) {
  int64_t warm_nodes = 0;
  int64_t nodes = 0;
  for (uint64_t seed = 21; seed <= 40; ++seed) {
    SchedulerShapedCycles cycles(10, 4, 6, seed);
    MilpOptions cold_options;
    cold_options.max_nodes = 0;
    cold_options.basis_warmstart = false;
    MilpOptions hot_options;
    hot_options.max_nodes = 0;
    MilpSolver cold_solver(cycles.model(), cycles.int_vars());
    const MilpSolution cold = cold_solver.Solve(cold_options);
    MilpSolver hot_solver(cycles.model(), cycles.int_vars());
    const MilpSolution hot = hot_solver.Solve(hot_options);

    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ASSERT_EQ(cold.status, MilpStatus::kOptimal);
    ASSERT_EQ(hot.status, MilpStatus::kOptimal);
    EXPECT_NEAR(hot.objective, cold.objective, 1e-9 * std::max(1.0, std::fabs(cold.objective)));
    EXPECT_TRUE(cycles.model().IsFeasible(hot.values));
    warm_nodes += hot.warm_started_nodes;
    nodes += hot.nodes_explored;
  }
  // Every node but the roots (and children of a parent that could not
  // export) resumes a factored start.
  EXPECT_GE(warm_nodes * 10, nodes * 9) << warm_nodes << " of " << nodes;
}

}  // namespace
}  // namespace threesigma
