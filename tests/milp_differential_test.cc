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
#include <utility>
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
    MilpSolver solver(LpCore(model), int_vars);
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
    MilpSolver solver(LpCore(model), int_vars);
    const MilpSolution cold = solver.Solve();
    if (cold.status != MilpStatus::kOptimal) {
      continue;
    }
    MilpOptions options;
    options.warm_start = cold.values;
    MilpSolver warm_solver(LpCore(model), int_vars);
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

    MilpSolver warm_solver(LpCore(model), int_vars);
    const MilpSolution warm = warm_solver.Solve(warm_options);
    MilpSolver cold_solver(LpCore(model), int_vars);
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
      MilpSolver cold_solver(LpCore(cycles.model()), cycles.int_vars());
      const MilpSolution cold = cold_solver.Solve(cold_options);
      MilpSolver warm_solver(LpCore(cycles.model()), cycles.int_vars());
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
    MilpSolver cold_solver(LpCore(cycles.model()), cycles.int_vars());
    const MilpSolution cold = cold_solver.Solve(cold_options);
    MilpSolver hot_solver(LpCore(cycles.model()), cycles.int_vars());
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

// The core of `model` assembled the way the scheduler assembles its own:
// straight through LpCoreBuilder, one column at a time, each column's
// entries in ascending row order.
LpCore ColumnWiseCore(const LpModel& model) {
  LpCoreBuilder builder;
  for (const LpRow& row : model.rows()) {
    builder.NewRow(row.sense, row.rhs);
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    builder.NewColumn(model.lower(j), model.upper(j), model.objective(j));
    for (int r = 0; r < model.num_rows(); ++r) {
      for (const LpTerm& t : model.row(r).terms) {
        if (t.var == j) {
          builder.AddEntry(r, t.coeff);
        }
      }
    }
  }
  return builder.Build();
}

// `core` holds exactly `model`: each CSR row is the model row's terms (which
// ascend by variable in every generator here), each CSC column the model's
// entries of that variable by ascending row, and a row's sense its slack's
// bounds.
void ExpectCoreHoldsModel(const LpCore& core, const LpModel& model) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  ASSERT_EQ(core.num_variables, n);
  ASSERT_EQ(core.num_rows, m);
  std::vector<std::vector<std::pair<int, double>>> columns(static_cast<size_t>(n));
  for (int r = 0; r < m; ++r) {
    const LpRow& row = model.row(r);
    ASSERT_EQ(core.row_start[static_cast<size_t>(r) + 1] - core.row_start[static_cast<size_t>(r)],
              static_cast<int>(row.terms.size()));
    for (size_t t = 0; t < row.terms.size(); ++t) {
      const size_t k = static_cast<size_t>(core.row_start[static_cast<size_t>(r)]) + t;
      EXPECT_EQ(core.row_col[k], row.terms[t].var);
      EXPECT_EQ(core.row_value[k], row.terms[t].coeff);
      columns[static_cast<size_t>(row.terms[t].var)].emplace_back(r, row.terms[t].coeff);
    }
    EXPECT_EQ(core.rhs[static_cast<size_t>(r)], row.rhs);
    EXPECT_EQ(core.row_sense(r), row.sense);
  }
  for (int j = 0; j < n; ++j) {
    const std::vector<std::pair<int, double>>& column = columns[static_cast<size_t>(j)];
    ASSERT_EQ(core.col_start[static_cast<size_t>(j) + 1] - core.col_start[static_cast<size_t>(j)],
              static_cast<int>(column.size()));
    for (size_t e = 0; e < column.size(); ++e) {
      const size_t k = static_cast<size_t>(core.col_start[static_cast<size_t>(j)]) + e;
      EXPECT_EQ(core.col_row[k], column[e].first);
      EXPECT_EQ(core.col_value[k], column[e].second);
    }
    EXPECT_EQ(core.lower[static_cast<size_t>(j)], model.lower(j));
    EXPECT_EQ(core.upper[static_cast<size_t>(j)], model.upper(j));
    EXPECT_EQ(core.objective[static_cast<size_t>(j)], model.objective(j));
  }
}

void ExpectSameCore(const LpCore& a, const LpCore& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.num_variables, b.num_variables);
  EXPECT_EQ(a.col_start, b.col_start);
  EXPECT_EQ(a.col_row, b.col_row);
  EXPECT_EQ(a.col_value, b.col_value);
  EXPECT_EQ(a.row_start, b.row_start);
  EXPECT_EQ(a.row_col, b.row_col);
  EXPECT_EQ(a.row_value, b.row_value);
  EXPECT_EQ(a.rhs, b.rhs);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  EXPECT_EQ(a.objective, b.objective);
}

// A random program of RandomBinaryProgram's shape with = rows appended
// (x_i + x_j = 1, or a random row pinned to its value at a random point).
LpModel RandomProgramWithEqualities(Rng& rng, std::vector<int>* int_vars) {
  LpModel model = RandomBinaryProgram(rng, int_vars);
  const int n = model.num_variables();
  const int rows = static_cast<int>(rng.UniformInt(1, 3));
  for (int r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) {
        terms.push_back({i, rng.Uniform(-2.0, 4.0)});
      }
    }
    const double rhs = rng.Bernoulli(0.5) ? rng.Uniform(-1.0, 3.0) : 1.0;
    model.AddRow(RowSense::kEqual, rhs, std::move(terms));
  }
  return model;
}

// The scheduler emits its core column by column; tests and the synthetic
// generators build theirs from an LpModel. Both must give the same arrays.
TEST(LpCoreBuilderTest, ColumnWiseCoreEqualsModelCore) {
  int cores = 0;
  for (uint64_t seed = 51; seed <= 54; ++seed) {
    SchedulerShapedCycles cycles(12, 3, 5, seed);
    for (int cycle = 0; cycle < 5; ++cycle) {
      if (cycle > 0) {
        cycles.Next();
      }
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " cycle " << cycle);
      const LpCore from_model(cycles.model());
      ExpectCoreHoldsModel(from_model, cycles.model());
      ExpectSameCore(ColumnWiseCore(cycles.model()), from_model);
      ++cores;
    }
  }
  int equality_rows = 0;
  int greater_rows = 0;
  for (int p = 0; p < 100; ++p) {
    Rng rng(3000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomProgramWithEqualities(rng, &int_vars);
    SCOPED_TRACE(::testing::Message() << "program " << p);
    const LpCore from_model(model);
    ExpectCoreHoldsModel(from_model, model);
    ExpectSameCore(ColumnWiseCore(model), from_model);
    for (const LpRow& row : model.rows()) {
      equality_rows += row.sense == RowSense::kEqual ? 1 : 0;
      greater_rows += row.sense == RowSense::kGreaterEqual ? 1 : 0;
    }
    ++cores;
  }
  EXPECT_EQ(cores, 120);
  EXPECT_GT(equality_rows, 0);
  EXPECT_GT(greater_rows, 0);
}

// The builder keeps LpModel's construction checks.
TEST(LpCoreBuilderDeathTest, RejectsMalformedColumns) {
  EXPECT_DEATH(
      {
        LpCoreBuilder builder;
        builder.NewColumn(1.0, 0.0, 0.0);
      },
      "");
  EXPECT_DEATH(
      {
        LpCoreBuilder builder;
        builder.NewColumn(-kLpInfinity, kLpInfinity, 0.0);
      },
      "finite bound");
  EXPECT_DEATH(
      {
        LpCoreBuilder builder;
        builder.NewRow(RowSense::kLessEqual, 1.0);
        builder.NewColumn(0.0, 1.0, 0.0);
        builder.AddEntry(1, 1.0);
      },
      "");
  EXPECT_DEATH(
      {
        LpCoreBuilder builder;
        builder.NewRow(RowSense::kLessEqual, 1.0);
        builder.NewRow(RowSense::kLessEqual, 1.0);
        builder.NewColumn(0.0, 1.0, 0.0);
        builder.AddEntry(1, 1.0);
        builder.AddEntry(0, 1.0);
      },
      "ascend");
}

// LpCore's feasibility test and objective agree with LpModel's, on random
// points and on points placed a hair inside and outside a bound or a row's
// tolerance band: the core sums each row's nonzero terms in the order the
// model does, so even the boundary comparisons come out the same.
TEST(LpCoreBuilderTest, FeasibilityAndObjectiveAgreeWithModel) {
  int feasible = 0;
  int infeasible = 0;
  for (int p = 0; p < 200; ++p) {
    Rng rng(4000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel base = RandomProgramWithEqualities(rng, &int_vars);
    const int n = base.num_variables();
    const double tol = rng.Bernoulli(0.5) ? 1e-6 : 1e-9;
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> x(static_cast<size_t>(n));
      for (double& v : x) {
        v = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 1.0);
      }
      // Sometimes put one variable right at a bound's tolerance edge.
      if (rng.Bernoulli(0.5)) {
        const int j = static_cast<int>(rng.UniformInt(0, n - 1));
        const double edge = tol * static_cast<double>(rng.UniformInt(-1, 1));
        x[static_cast<size_t>(j)] =
            rng.Bernoulli(0.5) ? base.lower(j) - edge : base.upper(j) + edge;
      }
      // Re-aim every row's right-hand side at its activity at x: with room
      // to spare, except one row that sits on its tolerance boundary, give
      // or take an ulp.
      LpModel model;
      for (int j = 0; j < n; ++j) {
        model.AddVariable(base.lower(j), base.upper(j), base.objective(j));
      }
      const int aimed = static_cast<int>(rng.UniformInt(0, base.num_rows() - 1));
      for (int r = 0; r < base.num_rows(); ++r) {
        const LpRow& row = base.row(r);
        double lhs = 0.0;
        for (const LpTerm& t : row.terms) {
          lhs += t.coeff * x[static_cast<size_t>(t.var)];
        }
        double rhs = lhs;
        if (r == aimed) {
          rhs += tol * static_cast<double>(rng.UniformInt(-1, 1));
          if (rng.Bernoulli(0.5)) {
            rhs = std::nextafter(rhs, rng.Bernoulli(0.5) ? kLpInfinity : -kLpInfinity);
          }
        } else if (row.sense == RowSense::kLessEqual) {
          rhs += rng.Uniform(0.0, 1.0);
        } else if (row.sense == RowSense::kGreaterEqual) {
          rhs -= rng.Uniform(0.0, 1.0);
        }
        model.AddRow(row.sense, rhs, row.terms);
      }
      const LpCore core(model);
      SCOPED_TRACE(::testing::Message() << "program " << p << " trial " << trial);
      const bool expected = model.IsFeasible(x, tol);
      EXPECT_EQ(core.IsFeasible(x, tol), expected);
      EXPECT_EQ(core.IsFeasible(x), model.IsFeasible(x));
      EXPECT_EQ(core.ObjectiveValue(x), model.ObjectiveValue(x));
      (expected ? feasible : infeasible) += 1;
    }
  }
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 100);
}

}  // namespace
}  // namespace threesigma
