// Solver substrate tests: LP model, bounded simplex, branch-and-bound MILP.
//
// The load-bearing properties are verified against brute force:
//   - random small LPs against dense vertex/grid enumeration bounds,
//   - random binary programs against exhaustive 2^n enumeration,
// plus hand-checked textbook instances.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"
#include "src/solver/synthetic.h"

namespace threesigma {
namespace {

// Exhaustive optimum of a pure-binary program; -inf objective if infeasible.
struct BruteForceResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<double> values;
};

BruteForceResult BruteForceBinary(const LpModel& model) {
  const int n = model.num_variables();
  BruteForceResult best;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(n);
    for (int i = 0; i < n; ++i) {
      x[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    bool in_bounds = true;
    for (int i = 0; i < n; ++i) {
      if (x[i] < model.lower(i) - 1e-9 || x[i] > model.upper(i) + 1e-9) {
        in_bounds = false;
        break;
      }
    }
    if (!in_bounds || !model.IsFeasible(x)) {
      continue;
    }
    const double obj = model.ObjectiveValue(x);
    if (!best.feasible || obj > best.objective) {
      best.feasible = true;
      best.objective = obj;
      best.values = x;
    }
  }
  return best;
}

TEST(LpModelTest, BuildAndEvaluate) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 3.0, "x");
  const int y = m.AddVariable(0.0, 2.0, 1.0, "y");
  m.AddRow(RowSense::kLessEqual, 2.0, {{x, 1.0}, {y, 1.0}}, "cap");
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({1.0, 1.0}), 4.0);
  EXPECT_TRUE(m.IsFeasible({1.0, 1.0}));
  EXPECT_FALSE(m.IsFeasible({1.0, 1.5}));
}

TEST(LpModelTest, ZeroCoefficientsPruned) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int r = m.AddRow(RowSense::kLessEqual, 1.0, {{x, 0.0}});
  EXPECT_TRUE(m.row(r).terms.empty());
}

TEST(LpModelTest, BoundsViolationDetected) {
  LpModel m;
  m.AddVariable(0.5, 1.0, 1.0);
  EXPECT_FALSE(m.IsFeasible({0.0}));
  EXPECT_TRUE(m.IsFeasible({0.75}));
}

TEST(LpModelTest, EqualAndGreaterRows) {
  LpModel m;
  const int x = m.AddVariable(0.0, 10.0, 1.0);
  m.AddRow(RowSense::kEqual, 4.0, {{x, 1.0}});
  EXPECT_TRUE(m.IsFeasible({4.0}));
  EXPECT_FALSE(m.IsFeasible({3.0}));
  LpModel g;
  const int y = g.AddVariable(0.0, 10.0, 1.0);
  g.AddRow(RowSense::kGreaterEqual, 2.0, {{y, 1.0}});
  EXPECT_FALSE(g.IsFeasible({1.0}));
  EXPECT_TRUE(g.IsFeasible({2.0}));
}

// ---------------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------------

TEST(SimplexTest, TextbookTwoVariable) {
  // max 3x + 5y  s.t.  x <= 4;  2y <= 12;  3x + 2y <= 18;  x,y >= 0.
  // Optimum: x=2, y=6, obj=36 (classic Dantzig example).
  LpModel m;
  const int x = m.AddVariable(0.0, kLpInfinity, 3.0);
  const int y = m.AddVariable(0.0, kLpInfinity, 5.0);
  m.AddRow(RowSense::kLessEqual, 4.0, {{x, 1.0}});
  m.AddRow(RowSense::kLessEqual, 12.0, {{y, 2.0}});
  m.AddRow(RowSense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-6);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-6);
  EXPECT_NEAR(sol.values[y], 6.0, 1e-6);
}

TEST(SimplexTest, PureBoundsProblem) {
  LpModel m;
  m.AddVariable(0.0, 1.0, 2.0);
  m.AddVariable(0.0, 3.0, -1.0);
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 0.0, 1e-9);
}

TEST(SimplexTest, UpperBoundsRespected) {
  // max x + y  s.t.  x + y <= 10, x <= 1 (bound), y <= 2 (bound).
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int y = m.AddVariable(0.0, 2.0, 1.0);
  m.AddRow(RowSense::kLessEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraintNeedsPhase1) {
  // max x  s.t.  x + y = 5, x <= 3, y <= 4.
  LpModel m;
  const int x = m.AddVariable(0.0, 3.0, 1.0);
  const int y = m.AddVariable(0.0, 4.0, 0.0);
  m.AddRow(RowSense::kEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
  EXPECT_NEAR(sol.values[x] + sol.values[y], 5.0, 1e-6);
}

TEST(SimplexTest, GreaterEqualConstraint) {
  // min x + y (== max -x - y)  s.t.  x + 2y >= 4, 3x + y >= 6.
  // Optimum at intersection: x = 1.6, y = 1.2, obj = 2.8.
  LpModel m;
  const int x = m.AddVariable(0.0, kLpInfinity, -1.0);
  const int y = m.AddVariable(0.0, kLpInfinity, -1.0);
  m.AddRow(RowSense::kGreaterEqual, 4.0, {{x, 1.0}, {y, 2.0}});
  m.AddRow(RowSense::kGreaterEqual, 6.0, {{x, 3.0}, {y, 1.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -2.8, 1e-6);
  EXPECT_NEAR(sol.values[x], 1.6, 1e-6);
  EXPECT_NEAR(sol.values[y], 1.2, 1e-6);
}

TEST(SimplexTest, InfeasibleDetected) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowSense::kGreaterEqual, 5.0, {{x, 1.0}});
  const LpSolution sol = SolveLp(m);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LpModel m;
  m.AddVariable(0.0, kLpInfinity, 1.0);  // Unconstrained upward.
  const int y = m.AddVariable(0.0, kLpInfinity, 0.0);
  m.AddRow(RowSense::kLessEqual, 5.0, {{y, 1.0}});
  const LpSolution sol = SolveLp(m);
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic cycling-prone structure; Bland fallback must terminate it.
  LpModel m;
  const int x1 = m.AddVariable(0.0, kLpInfinity, 10.0);
  const int x2 = m.AddVariable(0.0, kLpInfinity, -57.0);
  const int x3 = m.AddVariable(0.0, kLpInfinity, -9.0);
  const int x4 = m.AddVariable(0.0, kLpInfinity, -24.0);
  m.AddRow(RowSense::kLessEqual, 0.0, {{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9.0}});
  m.AddRow(RowSense::kLessEqual, 0.0, {{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1.0}});
  m.AddRow(RowSense::kLessEqual, 1.0, {{x1, 1.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-5);
}

TEST(SimplexTest, NegativeRhsNeedsPhase1) {
  // max -x  s.t.  -x <= -2  (i.e. x >= 2), x <= 5.
  LpModel m;
  const int x = m.AddVariable(0.0, 5.0, -1.0);
  m.AddRow(RowSense::kLessEqual, -2.0, {{x, -1.0}});
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-6);
}

TEST(SimplexTest, SolutionAlwaysFeasible) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m;
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < n; ++i) {
      m.AddVariable(0.0, rng.Uniform(0.5, 3.0), rng.Uniform(-5.0, 5.0));
    }
    for (int r = 0; r < rows; ++r) {
      std::vector<LpTerm> terms;
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.7)) {
          terms.push_back({i, rng.Uniform(0.0, 4.0)});
        }
      }
      m.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
    }
    const LpSolution sol = SolveLp(m);
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(sol.values, 1e-5)) << "trial " << trial;
    // Objective must at least match the origin (feasible here: rhs > 0).
    EXPECT_GE(sol.objective, -1e-9);
  }
}

// Randomized LPs with 2 variables are verified against a fine grid search.
class SimplexGridPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexGridPropertyTest, MatchesGridOptimum) {
  Rng rng(static_cast<uint64_t>(1000 + GetParam()));
  LpModel m;
  const int x = m.AddVariable(0.0, rng.Uniform(1.0, 4.0), rng.Uniform(-3.0, 3.0));
  const int y = m.AddVariable(0.0, rng.Uniform(1.0, 4.0), rng.Uniform(-3.0, 3.0));
  const int rows = static_cast<int>(rng.UniformInt(1, 4));
  for (int r = 0; r < rows; ++r) {
    m.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, 5.0),
             {{x, rng.Uniform(0.0, 2.0)}, {y, rng.Uniform(0.0, 2.0)}});
  }
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  // Grid search.
  double best = -1e100;
  const int steps = 400;
  for (int i = 0; i <= steps; ++i) {
    for (int j = 0; j <= steps; ++j) {
      const double xv = m.upper(x) * i / steps;
      const double yv = m.upper(y) * j / steps;
      if (m.IsFeasible({xv, yv})) {
        best = std::max(best, m.ObjectiveValue({xv, yv}));
      }
    }
  }
  // The grid is a lower bound on the true optimum; simplex must match or
  // exceed it up to grid resolution, and never exceed by more than epsilon
  // beyond what feasibility allows.
  EXPECT_GE(sol.objective, best - 0.05);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexGridPropertyTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// MILP
// ---------------------------------------------------------------------------

TEST(MilpTest, SimpleKnapsack) {
  // max 10a + 6b + 4c  s.t.  a + b + c <= 2 (binary).
  LpModel m;
  const int a = m.AddVariable(0.0, 1.0, 10.0);
  const int b = m.AddVariable(0.0, 1.0, 6.0);
  const int c = m.AddVariable(0.0, 1.0, 4.0);
  m.AddRow(RowSense::kLessEqual, 2.0, {{a, 1.0}, {b, 1.0}, {c, 1.0}});
  MilpSolver solver(LpCore(m), {a, b, c});
  const MilpSolution sol = solver.Solve();
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 16.0, 1e-6);
  EXPECT_NEAR(sol.values[a], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[b], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[c], 0.0, 1e-6);
}

TEST(MilpTest, FractionalLpForcedIntegral) {
  // LP relaxation picks x = 2.5/3; MILP must branch to integrality.
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 5.0);
  const int y = m.AddVariable(0.0, 1.0, 4.0);
  m.AddRow(RowSense::kLessEqual, 1.4, {{x, 1.0}, {y, 1.0}});
  MilpSolver solver(LpCore(m), {x, y});
  const MilpSolution sol = solver.Solve();
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-6);
}

TEST(MilpTest, InfeasibleModel) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowSense::kGreaterEqual, 2.0, {{x, 1.0}});
  MilpSolver solver(LpCore(m), {x});
  const MilpSolution sol = solver.Solve();
  EXPECT_EQ(sol.status, MilpStatus::kInfeasible);
}

TEST(MilpTest, WarmStartAccepted) {
  LpModel m;
  const int a = m.AddVariable(0.0, 1.0, 3.0);
  const int b = m.AddVariable(0.0, 1.0, 2.0);
  m.AddRow(RowSense::kLessEqual, 1.0, {{a, 1.0}, {b, 1.0}});
  MilpSolver solver(LpCore(m), {a, b});
  MilpOptions opts;
  opts.warm_start = {0.0, 1.0};  // Feasible but suboptimal.
  opts.max_nodes = 1000;
  const MilpSolution sol = solver.Solve(opts);
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);  // Improved past the warm start.
  EXPECT_FALSE(sol.warm_start_returned);
}

TEST(MilpTest, WarmStartReturnedUnderZeroNodeBudget) {
  LpModel m;
  const int a = m.AddVariable(0.0, 1.0, 3.0);
  const int b = m.AddVariable(0.0, 1.0, 2.0);
  m.AddRow(RowSense::kLessEqual, 1.0, {{a, 1.0}, {b, 1.0}});
  MilpSolver solver(LpCore(m), {a, b});
  MilpOptions opts;
  opts.warm_start = {0.0, 1.0};
  opts.max_nodes = -1;  // No search at all... (<=0 disables the limit)
  opts.time_limit_seconds = 1e-9;  // ...so use an expired clock instead.
  const MilpSolution sol = solver.Solve(opts);
  EXPECT_EQ(sol.status, MilpStatus::kFeasible);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_TRUE(sol.warm_start_returned);
}

TEST(MilpTest, InfeasibleWarmStartIgnored) {
  LpModel m;
  const int a = m.AddVariable(0.0, 1.0, 3.0);
  m.AddRow(RowSense::kLessEqual, 0.0, {{a, 1.0}});
  MilpSolver solver(LpCore(m), {a});
  MilpOptions opts;
  opts.warm_start = {1.0};  // Violates the row.
  const MilpSolution sol = solver.Solve(opts);
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
}

TEST(MilpTest, AtMostOneRowsLikeScheduler) {
  // Two jobs, two options each, shared capacity of one slot per time.
  // Mirrors the §4.3.4 structure in miniature.
  LpModel m;
  const int j1o1 = m.AddVariable(0.0, 1.0, 1.0);   // SLO now.
  const int j1o2 = m.AddVariable(0.0, 1.0, 0.5);   // SLO deferred.
  const int j2o1 = m.AddVariable(0.0, 1.0, 0.3);   // BE now.
  const int j2o2 = m.AddVariable(0.0, 1.0, 0.2);   // BE deferred.
  m.AddRow(RowSense::kLessEqual, 1.0, {{j1o1, 1.0}, {j1o2, 1.0}});
  m.AddRow(RowSense::kLessEqual, 1.0, {{j2o1, 1.0}, {j2o2, 1.0}});
  // Slot 0 capacity: "now" options collide.
  m.AddRow(RowSense::kLessEqual, 1.0, {{j1o1, 1.0}, {j2o1, 1.0}});
  // Slot 1 capacity: deferred options collide.
  m.AddRow(RowSense::kLessEqual, 1.0, {{j1o2, 1.0}, {j2o2, 1.0}});
  MilpSolver solver(LpCore(m), {j1o1, j1o2, j2o1, j2o2});
  const MilpSolution sol = solver.Solve();
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  // Best: SLO now (1.0) + BE deferred (0.2).
  EXPECT_NEAR(sol.objective, 1.2, 1e-6);
}

// Exhaustive verification on random binary programs.
class MilpBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpBruteForceTest, MatchesExhaustiveEnumeration) {
  Rng rng(static_cast<uint64_t>(5000 + GetParam()));
  LpModel m;
  const int n = static_cast<int>(rng.UniformInt(3, 12));
  std::vector<int> ints;
  for (int i = 0; i < n; ++i) {
    ints.push_back(m.AddVariable(0.0, 1.0, rng.Uniform(-2.0, 8.0)));
  }
  const int rows = static_cast<int>(rng.UniformInt(1, 6));
  for (int r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({i, rng.Uniform(0.1, 3.0)});
      }
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
    }
    m.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 5.0), std::move(terms));
  }
  MilpSolver solver(LpCore(m), ints);
  const MilpSolution sol = solver.Solve();
  const BruteForceResult brute = BruteForceBinary(m);
  ASSERT_TRUE(brute.feasible);  // All-zeros is always feasible here.
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, brute.objective, 1e-5);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(RandomBinaryPrograms, MilpBruteForceTest, ::testing::Range(0, 40));

// Mixed-sense binary programs (with >= rows) against brute force; exercises
// Phase-1 inside branch-and-bound and disables the greedy rounding path.
class MilpMixedSenseTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpMixedSenseTest, MatchesExhaustiveEnumeration) {
  Rng rng(static_cast<uint64_t>(9000 + GetParam()));
  LpModel m;
  const int n = static_cast<int>(rng.UniformInt(3, 10));
  std::vector<int> ints;
  for (int i = 0; i < n; ++i) {
    ints.push_back(m.AddVariable(0.0, 1.0, rng.Uniform(-3.0, 6.0)));
  }
  const int rows = static_cast<int>(rng.UniformInt(1, 5));
  for (int r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({i, rng.Uniform(-2.0, 3.0)});
      }
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
    }
    const RowSense sense = rng.Bernoulli(0.5) ? RowSense::kLessEqual : RowSense::kGreaterEqual;
    m.AddRow(sense, rng.Uniform(-1.0, 3.0), std::move(terms));
  }
  MilpSolver solver(LpCore(m), ints);
  const MilpSolution sol = solver.Solve();
  const BruteForceResult brute = BruteForceBinary(m);
  if (!brute.feasible) {
    EXPECT_EQ(sol.status, MilpStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(sol.status, MilpStatus::kOptimal) << "nodes=" << sol.nodes_explored;
  EXPECT_NEAR(sol.objective, brute.objective, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomMixedPrograms, MilpMixedSenseTest, ::testing::Range(0, 40));

TEST(SimplexTest, IterationLimitReturnsFeasiblePoint) {
  // Starve the solver: it must stop with kIterationLimit and a feasible
  // (if suboptimal) point rather than spin or crash.
  Rng rng(808);
  LpModel m;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    m.AddVariable(0.0, 1.0, rng.Uniform(0.1, 5.0));
  }
  for (int r = 0; r < 10; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back({i, rng.Uniform(0.1, 2.0)});
    }
    m.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, 5.0), std::move(terms));
  }
  SimplexOptions options;
  options.max_iterations = 3;
  const LpSolution sol = SolveLp(m, options);
  ASSERT_EQ(sol.status, LpStatus::kIterationLimit);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-5));
}

TEST(SimplexTest, LargerLpStaysFeasibleAndOptimal) {
  // A beefier scheduler-shaped LP: sanity at the sizes real cycles produce.
  Rng rng(909);
  LpModel m;
  std::vector<std::vector<LpTerm>> capacity(30);
  for (int j = 0; j < 80; ++j) {
    std::vector<LpTerm> demand;
    for (int o = 0; o < 10; ++o) {
      const int var = m.AddVariable(0.0, 1.0, rng.Uniform(0.1, 10.0));
      demand.push_back({var, 1.0});
      for (int c = 0; c < 30; ++c) {
        if (rng.Bernoulli(0.3)) {
          capacity[static_cast<size_t>(c)].push_back({var, rng.Uniform(0.5, 4.0)});
        }
      }
    }
    m.AddRow(RowSense::kLessEqual, 1.0, std::move(demand));
  }
  for (auto& terms : capacity) {
    m.AddRow(RowSense::kLessEqual, rng.Uniform(8.0, 20.0), std::move(terms));
  }
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-5));
  EXPECT_GT(sol.objective, 0.0);
}

// ---------------------------------------------------------------------------
// Fixed, row-free and redundant structure (suite name kept from the deleted
// presolve pass, which removed these before solving): the simplex now solves
// each model whole, from a slack basis, and must reach the known answer.
// ---------------------------------------------------------------------------

void ExpectOptimalAt(const LpModel& m, double objective, const std::vector<double>& values) {
  const LpSolution sol = SolveLp(m);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, objective, 1e-9);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-9));
  ASSERT_EQ(sol.values.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(sol.values[i], values[i], 1e-9) << "variable " << i;
  }
}

TEST(PresolveTest, FixedVariableSubstituted) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 3.0);
  const int y = m.AddVariable(0.5, 0.5, 2.0);  // Fixed at 0.5.
  m.AddRow(RowSense::kLessEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  ExpectOptimalAt(m, 2.5, {0.5, 0.5});
}

TEST(PresolveTest, RowFreeVariableMovesToBestBound) {
  LpModel m;
  m.AddVariable(0.0, 2.0, 5.0);   // Maximize: picks 2.
  m.AddVariable(0.0, 2.0, -1.0);  // Minimize: picks 0.
  ExpectOptimalAt(m, 10.0, {2.0, 0.0});
}

TEST(PresolveTest, RedundantRowDropped) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowSense::kLessEqual, 5.0, {{x, 1.0}});  // x <= 5 can never bind.
  ExpectOptimalAt(m, 1.0, {1.0});
}

TEST(PresolveTest, InfeasibleRowDetected) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowSense::kGreaterEqual, 5.0, {{x, 1.0}});  // x >= 5 impossible.
  EXPECT_EQ(SolveLp(m).status, LpStatus::kInfeasible);
}

TEST(PresolveTest, FixedVariablesProveInfeasibility) {
  LpModel m;
  const int x = m.AddVariable(1.0, 1.0, 1.0);
  const int y = m.AddVariable(1.0, 1.0, 1.0);
  m.AddRow(RowSense::kLessEqual, 1.5, {{x, 1.0}, {y, 1.0}});  // 2 <= 1.5.
  EXPECT_EQ(SolveLp(m).status, LpStatus::kInfeasible);
}

TEST(PresolveTest, ConsistentFullySubstitutedRowDropped) {
  LpModel m;
  const int x = m.AddVariable(0.3, 0.3, 1.0);
  m.AddRow(RowSense::kEqual, 0.3, {{x, 1.0}});
  ExpectOptimalAt(m, 0.3, {0.3});
}

// ---------------------------------------------------------------------------
// Row coalescing (LpModel::AddRow)
// ---------------------------------------------------------------------------

TEST(LpModelTest, DuplicateTermsCoalesced) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int y = m.AddVariable(0.0, 1.0, 1.0);
  // x appears three times: 2 + 3 - 1 = 4; first-occurrence order is kept.
  const int r = m.AddRow(RowSense::kLessEqual, 5.0,
                         {{x, 2.0}, {y, 1.5}, {x, 3.0}, {x, -1.0}});
  ASSERT_EQ(m.row(r).terms.size(), 2u);
  EXPECT_EQ(m.row(r).terms[0].var, x);
  EXPECT_DOUBLE_EQ(m.row(r).terms[0].coeff, 4.0);
  EXPECT_EQ(m.row(r).terms[1].var, y);
  EXPECT_DOUBLE_EQ(m.row(r).terms[1].coeff, 1.5);
}

TEST(LpModelTest, DuplicateTermsCancellingToZeroDropped) {
  LpModel m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int y = m.AddVariable(0.0, 1.0, 1.0);
  const int r = m.AddRow(RowSense::kLessEqual, 5.0, {{x, 2.0}, {y, 1.0}, {x, -2.0}});
  ASSERT_EQ(m.row(r).terms.size(), 1u);
  EXPECT_EQ(m.row(r).terms[0].var, y);
}

TEST(LpModelTest, CoalescedRowSolvesLikeExplicitRow) {
  // The duplicate-term row must behave exactly like its coalesced equivalent
  // through the solver.
  LpModel dup;
  const int x = dup.AddVariable(0.0, 5.0, 1.0);
  dup.AddRow(RowSense::kLessEqual, 6.0, {{x, 1.0}, {x, 1.0}});  // => 2x <= 6.
  LpModel plain;
  const int px = plain.AddVariable(0.0, 5.0, 1.0);
  plain.AddRow(RowSense::kLessEqual, 6.0, {{px, 2.0}});
  const LpSolution a = SolveLp(dup);
  const LpSolution b = SolveLp(plain);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_NEAR(a.values[x], 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Basis export / import (warm starts)
// ---------------------------------------------------------------------------

TEST(SimplexTest, OwnBasisResolvesWithZeroPivots) {
  // Re-solving an LP from its own optimal basis must take no pivots at all:
  // the install lands primal feasible and pricing finds nothing favorable.
  Rng rng(606);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m;
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 0; i < n; ++i) {
      m.AddVariable(0.0, rng.Uniform(0.5, 3.0), rng.Uniform(-4.0, 5.0));
    }
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    for (int r = 0; r < rows; ++r) {
      std::vector<LpTerm> terms;
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.6)) {
          terms.push_back({i, rng.Uniform(0.0, 3.0)});
        }
      }
      m.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
    }
    const LpSolution cold = SolveLp(m);
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_FALSE(cold.basis.empty());

    SimplexOptions warm_options;
    warm_options.start_basis = cold.basis;
    const LpSolution warm = SolveLp(m, warm_options);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-7) << "trial " << trial;
    EXPECT_TRUE(warm.stats.warm_basis_used) << "trial " << trial;
    EXPECT_EQ(warm.iterations, 0) << "trial " << trial;
    EXPECT_EQ(warm.stats.phase1_iterations, 0) << "trial " << trial;
  }
}

TEST(SimplexTest, ParentBasisReoptimizesAfterBoundFix) {
  // The branch-and-bound child pattern: tighten one variable's bounds (fix a
  // 0/1 indicator), restart from the parent's basis, and land on the same
  // optimum a cold solve finds — with zero Phase-1 work.
  Rng rng(707);
  for (int trial = 0; trial < 30; ++trial) {
    LpModel m;
    const int n = static_cast<int>(rng.UniformInt(4, 12));
    for (int i = 0; i < n; ++i) {
      m.AddVariable(0.0, 1.0, rng.Uniform(-2.0, 6.0));
    }
    const int rows = static_cast<int>(rng.UniformInt(2, 7));
    for (int r = 0; r < rows; ++r) {
      std::vector<LpTerm> terms;
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.5)) {
          terms.push_back({i, rng.Uniform(0.1, 3.0)});
        }
      }
      m.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, 5.0), std::move(terms));
    }
    const LpSolution parent = SolveLp(m);
    ASSERT_EQ(parent.status, LpStatus::kOptimal) << "trial " << trial;

    // Fix one variable the way branching does.
    const int fixed = static_cast<int>(rng.UniformInt(0, static_cast<uint64_t>(n - 1)));
    const double side = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    m.SetVariableBounds(fixed, side, side);

    const LpSolution cold = SolveLp(m);
    SimplexOptions warm_options;
    warm_options.start_basis = parent.basis;
    const LpSolution warm = SolveLp(m, warm_options);

    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(warm.values, 1e-5)) << "trial " << trial;
      EXPECT_EQ(warm.stats.phase1_iterations, 0) << "trial " << trial;
    }
  }
}

TEST(SimplexTest, ForeignBasisNeverChangesAnswer) {
  // A basis from a completely unrelated model of the same shape must be
  // repaired or discarded — never trusted into a wrong answer.
  Rng rng(909);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6;
    const int rows = 4;
    const auto make_model = [&]() {
      LpModel m;
      for (int i = 0; i < n; ++i) {
        m.AddVariable(0.0, rng.Uniform(0.5, 2.0), rng.Uniform(-3.0, 4.0));
      }
      for (int r = 0; r < rows; ++r) {
        std::vector<LpTerm> terms;
        for (int i = 0; i < n; ++i) {
          if (rng.Bernoulli(0.6)) {
            terms.push_back({i, rng.Uniform(0.1, 2.0)});
          }
        }
        m.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 4.0), std::move(terms));
      }
      return m;
    };
    const LpModel donor = make_model();
    const LpModel target = make_model();
    const LpSolution donor_sol = SolveLp(donor);
    ASSERT_EQ(donor_sol.status, LpStatus::kOptimal);

    const LpSolution cold = SolveLp(target);
    SimplexOptions warm_options;
    warm_options.start_basis = donor_sol.basis;
    const LpSolution warm = SolveLp(target, warm_options);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    EXPECT_TRUE(target.IsFeasible(warm.values, 1e-5)) << "trial " << trial;
  }
}

TEST(SimplexTest, RandomStartBasesMatchColdWithFullyFixedRows) {
  // Adversarial generator: a high fixing rate so some rows end up with
  // EVERY variable fixed by its bounds (the row reduces to a pure
  // consistency check, sometimes an infeasible one), equality rows, and
  // negative coefficients. Solves from random start bases, repaired or
  // discarded on install, must agree with a cold solve on status and
  // objective, and every optimum must be feasible.
  Rng rng(606);
  Rng basis_rng(607);
  int fully_fixed_rows_seen = 0;
  int infeasible_seen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    LpModel m;
    const int n = static_cast<int>(rng.UniformInt(2, 9));
    std::vector<bool> fixed(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double lo = rng.Uniform(0.0, 1.5);
      fixed[static_cast<size_t>(i)] = rng.Bernoulli(0.45);
      const double up = fixed[static_cast<size_t>(i)] ? lo : lo + rng.Uniform(0.1, 2.0);
      m.AddVariable(lo, up, rng.Uniform(-3.0, 3.0));
    }
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    for (int r = 0; r < rows; ++r) {
      std::vector<LpTerm> terms;
      bool all_fixed = true;
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.6)) {
          terms.push_back({i, rng.Uniform(-1.5, 2.5)});
          all_fixed = all_fixed && fixed[static_cast<size_t>(i)];
        }
      }
      if (terms.empty()) {
        terms.push_back({0, 1.0});
        all_fixed = fixed[0];
      }
      if (all_fixed) {
        ++fully_fixed_rows_seen;
      }
      const double roll = rng.Uniform(0.0, 1.0);
      if (roll < 0.15) {
        // Equality rows through an activity the bounds can often reach.
        m.AddRow(RowSense::kEqual, rng.Uniform(0.0, 3.0), std::move(terms));
      } else if (roll < 0.35) {
        m.AddRow(RowSense::kGreaterEqual, rng.Uniform(-1.0, 2.5), std::move(terms));
      } else {
        m.AddRow(RowSense::kLessEqual, rng.Uniform(0.0, 5.0), std::move(terms));
      }
    }
    const LpSolution cold = SolveLp(m);
    const std::string what = "trial " + std::to_string(trial);
    if (cold.status == LpStatus::kInfeasible) {
      ++infeasible_seen;
    } else {
      ASSERT_EQ(cold.status, LpStatus::kOptimal) << what;
      EXPECT_TRUE(m.IsFeasible(cold.values, 1e-5)) << what;
    }
    for (int b = 0; b < 4; ++b) {
      SimplexOptions options;
      options.start_basis.status.resize(static_cast<size_t>(n + rows));
      for (BasisStatus& status : options.start_basis.status) {
        status = static_cast<BasisStatus>(basis_rng.UniformInt(0, 2));
      }
      const LpSolution warm = SolveLp(m, options);
      const std::string with = what + " start basis " + std::to_string(b);
      ASSERT_EQ(warm.status, cold.status) << with;
      if (cold.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << with;
        EXPECT_TRUE(m.IsFeasible(warm.values, 1e-5)) << with;
      }
    }
  }
  // The generator must actually hit the edge cases this test is about.
  EXPECT_GT(fully_fixed_rows_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(SimplexTest, ExportedBasisReimportsWithZeroPivots) {
  // A basis exported over every structural and slack variable, including a
  // fixed variable and the slack of a row that can never bind, re-imports
  // as is: the warm solve uses it and takes no pivot.
  LpModel m;
  const int a = m.AddVariable(0.0, 1.0, 2.0);
  const int b = m.AddVariable(0.5, 0.5, 1.0);  // Fixed.
  const int c = m.AddVariable(0.0, 2.0, 3.0);
  m.AddRow(RowSense::kLessEqual, 2.0, {{a, 1.0}, {b, 1.0}, {c, 1.0}});
  m.AddRow(RowSense::kLessEqual, 50.0, {{a, 1.0}, {c, 1.0}});  // Redundant.
  const LpSolution first = SolveLp(m);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_EQ(first.basis.status.size(),
            static_cast<size_t>(m.num_variables() + m.num_rows()));
  SimplexOptions options;
  options.start_basis = first.basis;
  const LpSolution second = SolveLp(m, options);
  ASSERT_EQ(second.status, LpStatus::kOptimal);
  EXPECT_NEAR(second.objective, first.objective, 1e-9);
  EXPECT_TRUE(second.stats.warm_basis_used);
  EXPECT_EQ(second.iterations, 0);
}

// Field-by-field equality of two LP results: same status, pivots by phase,
// basis solves, refactorizations, point and basis.
void ExpectSameLpRun(const LpSolution& a, const LpSolution& b, const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.stats.phase1_iterations, b.stats.phase1_iterations) << what;
  EXPECT_EQ(a.stats.phase2_iterations, b.stats.phase2_iterations) << what;
  EXPECT_EQ(a.stats.dual_iterations, b.stats.dual_iterations) << what;
  EXPECT_EQ(a.stats.ftran, b.stats.ftran) << what;
  EXPECT_EQ(a.stats.btran, b.stats.btran) << what;
  EXPECT_EQ(a.stats.refactorizations, b.stats.refactorizations) << what;
  EXPECT_EQ(a.stats.warm_basis_used, b.stats.warm_basis_used) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.values, b.values) << what;
  EXPECT_EQ(a.basis.status, b.basis.status) << what;
}

TEST(SimplexTest, ShiftedStartMatchesColdOnPerturbedCycles) {
  // Consecutive scheduler-shaped cycle models: jobs come and go, options are
  // added and dropped, objectives and capacity right-hand sides move. Last
  // cycle's optimal basis, mapped by key, is then mostly neither primal nor
  // dual feasible; the shifted-bound start must still give the cold status
  // and objective.
  int shifted_starts = 0;
  int roots = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SchedulerShapedCycles cycles(10, 5, 8, seed);
    LpSolution previous = SolveLp(cycles.model());
    ASSERT_EQ(previous.status, LpStatus::kOptimal);
    for (int cycle = 1; cycle <= 12; ++cycle) {
      cycles.Next();
      const LpSolution cold = SolveLp(cycles.model());
      SimplexOptions warm_options;
      warm_options.start_basis = cycles.MapBasis(previous.basis);
      ASSERT_FALSE(warm_options.start_basis.empty());
      const LpSolution warm = SolveLp(cycles.model(), warm_options);
      const std::string what = "seed " + std::to_string(seed) + " cycle " + std::to_string(cycle);
      ASSERT_EQ(warm.status, cold.status) << what;
      ASSERT_EQ(cold.status, LpStatus::kOptimal) << what;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, std::fabs(cold.objective)))
          << what;
      EXPECT_TRUE(cycles.model().IsFeasible(warm.values, 1e-6)) << what;
      ++roots;
      if (warm.stats.warm_basis_used && warm.stats.shifted_bounds > 0) {
        ++shifted_starts;
      }
      previous = warm;
    }
  }
  // Most roots must take the shifted-bound path and finish warm.
  EXPECT_GE(shifted_starts * 2, roots) << shifted_starts << " of " << roots;
}

TEST(SimplexTest, FactoredChildStartMatchesCold) {
  // Branch-and-bound children resume their parent's exported state: its
  // factored basis and exact reduced costs, carried down the tree without a
  // reinversion, then updated pivot by pivot in the dual simplex. Walking
  // trees of scheduler-shaped models, every child must reach the status and
  // objective of a cold SolveLp on a bound-fixed copy, without falling back
  // to the cold start, and its certifying primal pass must take no pivot:
  // that is the check that the carried reduced costs did not drift.
  struct Pending {
    std::vector<BoundFix> fixes;
    std::shared_ptr<const FactoredStart> start;
  };
  int children = 0;
  int infeasible = 0;
  int exported = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SchedulerShapedCycles cycles(14, 6, 10, seed);
    for (int cycle = 0; cycle < 3; ++cycle) {
      if (cycle > 0) {
        cycles.Next();
      }
      const LpModel& model = cycles.model();
      const LpCore core(model);
      LpWorkspace workspace;
      std::vector<Pending> stack;
      stack.push_back(Pending{{}, nullptr});
      for (int node = 0; node < 40 && !stack.empty(); ++node) {
        Pending pending = std::move(stack.back());
        stack.pop_back();
        const LpSolution lp = pending.start == nullptr
                                  ? workspace.Solve(core, pending.fixes, {})
                                  : workspace.SolveFrom(core, pending.fixes, *pending.start);
        const std::string what = "seed " + std::to_string(seed) + " cycle " +
                                 std::to_string(cycle) + " node " + std::to_string(node);
        if (pending.start != nullptr) {
          ++children;
          LpModel fixed = model;
          for (const BoundFix& fix : pending.fixes) {
            fixed.SetVariableBounds(fix.var, fix.lower, fix.upper);
          }
          const LpSolution cold = SolveLp(fixed);
          ASSERT_EQ(lp.status, cold.status) << what;
          EXPECT_TRUE(lp.stats.warm_basis_used) << what;
          EXPECT_EQ(lp.stats.phase1_iterations, 0) << what;
          EXPECT_EQ(lp.stats.phase2_iterations, 0) << what;
          if (cold.status == LpStatus::kInfeasible) {
            ++infeasible;
            continue;
          }
          ASSERT_EQ(cold.status, LpStatus::kOptimal) << what;
          EXPECT_NEAR(lp.objective, cold.objective,
                      1e-9 * std::max(1.0, std::fabs(cold.objective)))
              << what;
          EXPECT_TRUE(fixed.IsFeasible(lp.values, 1e-6)) << what;
        }
        ASSERT_EQ(lp.status, LpStatus::kOptimal) << what;
        // Branch on the most fractional variable, both ways.
        int branch = -1;
        double best = 1e-6;
        for (int v : cycles.int_vars()) {
          const double frac = std::fabs(lp.values[static_cast<size_t>(v)] -
                                        std::round(lp.values[static_cast<size_t>(v)]));
          if (frac > best) {
            best = frac;
            branch = v;
          }
        }
        if (branch < 0) {
          continue;
        }
        const std::shared_ptr<const FactoredStart> start = workspace.ExportStart();
        ASSERT_NE(start, nullptr) << what;
        ++exported;
        const double value = lp.values[static_cast<size_t>(branch)];
        for (const bool up : {false, true}) {
          Pending child{pending.fixes, start};
          child.fixes.push_back(up ? BoundFix{branch, std::ceil(value), model.upper(branch)}
                                   : BoundFix{branch, model.lower(branch), std::floor(value)});
          stack.push_back(std::move(child));
        }
      }
    }
  }
  EXPECT_GE(exported, 1000);
  EXPECT_GE(children, 2000);
  EXPECT_GE(infeasible, 200) << infeasible << " of " << children;
}

TEST(SimplexTest, BoundOverlayMatchesModelCopyPivotForPivot) {
  // Branch-and-bound nodes solve on one shared LpCore with their branching
  // decisions as a bound overlay, reusing one workspace. That must be the
  // same run, pivot for pivot, as SolveLp on a model copy whose bounds were
  // set — with and without a parent basis.
  Rng rng(4242);
  std::vector<int> int_vars;
  LpModel model = SchedulerShapedModel(12, 6, 10, rng, &int_vars);
  const LpCore core(model);
  LpWorkspace workspace;
  const LpSolution root = SolveLp(model);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<BoundFix> fixes;
    const int depth = static_cast<int>(rng.UniformInt(0, 6));
    for (int d = 0; d < depth; ++d) {
      const int v = int_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(int_vars.size()) - 1))];
      const double side = rng.Bernoulli(0.5) ? 1.0 : 0.0;
      fixes.push_back(BoundFix{v, side, side});
    }
    LpModel copy = model;
    for (const BoundFix& fix : fixes) {
      copy.SetVariableBounds(fix.var, fix.lower, fix.upper);
    }
    SimplexOptions options;
    if (trial % 3 != 0) {
      options.start_basis = root.basis;
    }
    const std::string what = "trial " + std::to_string(trial);
    ExpectSameLpRun(workspace.Solve(core, fixes, options), SolveLp(copy, options), what);
  }
}

// Reads an LP captured from a scheduler run: "n m", n lines "lower upper
// objective", m lines "sense rhs k (var coeff)*k" (sense as RowSense), then
// "f" and f lines "var lower upper" (branching fixes), then "presolve s" and
// s start-basis statuses (as BasisStatus). The presolve flag is unused.
struct CapturedLp {
  LpModel model;
  std::vector<BoundFix> fixes;
  LpBasis start_basis;
};

CapturedLp ReadCapturedLp(const std::string& path) {
  CapturedLp lp;
  std::ifstream in(path);
  int n = 0;
  int m = 0;
  in >> n >> m;
  for (int j = 0; j < n; ++j) {
    double lower = 0.0;
    double upper = 0.0;
    double objective = 0.0;
    in >> lower >> upper >> objective;
    lp.model.AddVariable(lower, upper, objective);
  }
  for (int r = 0; r < m; ++r) {
    int sense = 0;
    double rhs = 0.0;
    size_t k = 0;
    in >> sense >> rhs >> k;
    std::vector<LpTerm> terms(k);
    for (LpTerm& t : terms) {
      in >> t.var >> t.coeff;
    }
    lp.model.AddRow(static_cast<RowSense>(sense), rhs, std::move(terms));
  }
  size_t f = 0;
  in >> f;
  lp.fixes.resize(f);
  for (BoundFix& fix : lp.fixes) {
    in >> fix.var >> fix.lower >> fix.upper;
  }
  int unused = 0;
  size_t s = 0;
  in >> unused >> s;
  lp.start_basis.status.resize(s);
  for (BasisStatus& status : lp.start_basis.status) {
    int code = 0;
    in >> code;
    status = static_cast<BasisStatus>(code);
  }
  EXPECT_TRUE(static_cast<bool>(in)) << "malformed " << path;
  return lp;
}

TEST(SimplexTest, SingularWarmBasisFallsBackToColdStart) {
  // A node LP captured from a 2 h, load-1.4 Google run (seed 2008, variable
  // job count) and reduced to 85 variables and 51 rows. Warm-started from its
  // parent's basis, the dual simplex pivots on a ~1e-9 entry and leaves a
  // numerically singular basis that no reinversion can factor. Unless the
  // run is declared broken down, the eta file grows by one per pivot and the
  // drifting run pivots until the 200(n+2m)+2000 cap (minutes on the full
  // model). The warm run must break off, cold-start, and return the cold
  // optimum in bounded pivots.
  const CapturedLp lp = ReadCapturedLp(std::string(TEST_DATA_DIR) + "/singular_basis_lp.txt");
  ASSERT_EQ(lp.model.num_variables(), 85);
  ASSERT_EQ(lp.model.num_rows(), 51);
  const LpCore core(lp.model);
  LpWorkspace workspace;
  const LpSolution cold = workspace.Solve(core, lp.fixes, {});
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  SimplexOptions warm_options;
  warm_options.start_basis = lp.start_basis;
  const LpSolution warm = workspace.Solve(core, lp.fixes, warm_options);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_FALSE(warm.stats.warm_basis_used);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  // About 2,270 pivots: the dual pivots, the broken primal run until 32
  // reinversions in a row have failed, then the cold solve. The pivot cap
  // the stall ran into is 39,400.
  EXPECT_LT(warm.iterations, 3000);
  LpModel fixed = lp.model;
  for (const BoundFix& fix : lp.fixes) {
    fixed.SetVariableBounds(fix.var, fix.lower, fix.upper);
  }
  EXPECT_TRUE(fixed.IsFeasible(warm.values, 1e-6));
}

TEST(MilpTest, BasisWarmstartSlashesLpIterations) {
  // Scheduler-shaped B&B stream: with parent-basis warm starts, total LP
  // pivots across the tree must drop sharply and phase-1 work must all but
  // vanish (children re-optimize dually instead of rebuilding feasibility).
  Rng rng(515);
  LpModel m;
  std::vector<int> ints;
  std::vector<std::vector<LpTerm>> capacity(8);
  for (int j = 0; j < 24; ++j) {
    std::vector<LpTerm> demand;
    for (int o = 0; o < 3; ++o) {
      const int var = m.AddVariable(0.0, 1.0, rng.Uniform(0.5, 8.0));
      ints.push_back(var);
      demand.push_back({var, 1.0});
      for (int c = 0; c < 8; ++c) {
        if (rng.Bernoulli(0.4)) {
          capacity[static_cast<size_t>(c)].push_back({var, rng.Uniform(0.5, 3.0)});
        }
      }
    }
    m.AddRow(RowSense::kLessEqual, 1.0, std::move(demand));
  }
  for (auto& terms : capacity) {
    m.AddRow(RowSense::kLessEqual, rng.Uniform(4.0, 10.0), std::move(terms));
  }
  MilpOptions warm_options;
  warm_options.max_nodes = 60;
  MilpOptions cold_options = warm_options;
  cold_options.basis_warmstart = false;

  MilpSolver warm_solver(LpCore(m), ints);
  const MilpSolution warm = warm_solver.Solve(warm_options);
  MilpSolver cold_solver(LpCore(m), ints);
  const MilpSolution cold = cold_solver.Solve(cold_options);

  ASSERT_NE(warm.status, MilpStatus::kInfeasible);
  ASSERT_NE(cold.status, MilpStatus::kInfeasible);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_GT(warm.warm_started_nodes, 0);
  EXPECT_EQ(cold.warm_started_nodes, 0);
  ASSERT_GT(cold.lp_iterations, 0);
  // The acceptance bar for the whole PR: >= 3x fewer simplex pivots.
  EXPECT_LE(warm.lp_iterations * 3, cold.lp_iterations)
      << "warm=" << warm.lp_iterations << " cold=" << cold.lp_iterations;
  // Warm nodes re-optimize dually; no phase-1 feasibility rebuild anywhere.
  EXPECT_EQ(warm.lp_phase1_iterations, 0);
  EXPECT_GT(warm.lp_dual_iterations, 0);
  EXPECT_GE(warm.warm_started_nodes, warm.nodes_explored - 2);
}

TEST(MilpTest, NodeBudgetReturnsIncumbent) {
  Rng rng(777);
  LpModel m;
  std::vector<int> ints;
  for (int i = 0; i < 30; ++i) {
    ints.push_back(m.AddVariable(0.0, 1.0, rng.Uniform(1.0, 10.0)));
  }
  for (int r = 0; r < 10; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < 30; ++i) {
      terms.push_back({i, rng.Uniform(0.1, 2.0)});
    }
    m.AddRow(RowSense::kLessEqual, 8.0, std::move(terms));
  }
  MilpSolver solver(LpCore(m), ints);
  MilpOptions opts;
  opts.max_nodes = 5;
  const MilpSolution sol = solver.Solve(opts);
  // Must return *some* feasible solution within budget.
  ASSERT_NE(sol.status, MilpStatus::kInfeasible);
  EXPECT_TRUE(m.IsFeasible(sol.values, 1e-6));
  EXPECT_GT(sol.objective, 0.0);
}

}  // namespace
}  // namespace threesigma
