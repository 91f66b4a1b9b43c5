// Sparse revised simplex for bounded variables (primal two-phase + dual).
//
// Solves   max cᵀx   s.t.  rows (≤ / ≥ / =),  l ≤ x ≤ u.
//
// This is the LP engine underneath the branch-and-bound MILP solver that
// replaces the external solver of the paper (§4.3, "solved by an external
// MILP solver"). Scheduler MILPs are extremely sparse — each 0/1 option
// variable touches one demand row plus a handful of expected-capacity rows —
// and consecutive branch-and-bound nodes differ by a single bound change, so
// the engine is built around that structure:
//   - the constraint matrix is held in compressed-sparse-column form; every
//     row gets a slack variable with bounds encoding its sense,
//   - the basis inverse is a product-form eta file: reinversion triangularizes
//     the basis column pattern (slack/singleton columns pivot first) and each
//     simplex pivot appends one sparse eta, giving O(nnz) FTRAN/BTRAN instead
//     of the O(m²)-per-pivot dense inverse; periodic refactorization bounds
//     eta growth and self-corrects numerical drift,
//   - primal pricing uses a candidate list (partial pricing): a full reduced-
//     cost scan harvests the best candidates, subsequent pivots re-price only
//     the list until it runs dry; a Bland's-rule full scan takes over after a
//     degeneracy streak to guarantee termination,
//   - a basis (variable statuses over structural + slack variables) can be
//     exported from a solved LP and imported as a starting point: a primal-
//     feasible import skips Phase 1 outright, a dual-feasible import
//     re-optimizes with the bounded-variable dual simplex (the branch-and-
//     bound child case: the parent's optimal basis stays dual feasible under
//     a bound change), and anything else falls back to a cold start, so a
//     warm start can never change the *answer*, only the pivot count.
//
// Determinism: every choice (pricing, ratio-test tie-breaks, reinversion
// order, repair) is a pure function of the model and options — never of
// wall clock or thread count.

#ifndef SRC_SOLVER_SIMPLEX_H_
#define SRC_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/solver/lp_model.h"

namespace threesigma {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

// Status of one variable relative to a basis. Nonbasic statuses are symbolic
// ("at the current lower bound"), so a basis remains meaningful after the
// bounds themselves move — exactly what branch-and-bound does to children.
enum class BasisStatus : uint8_t { kBasic, kAtLower, kAtUpper };

// A simplex basis over the structural variables followed by the slack
// variables (num_variables + num_rows entries). Imports are best-effort: a
// stale or dimension-mismatched basis is repaired or discarded, never trusted
// into a wrong answer.
struct LpBasis {
  std::vector<BasisStatus> status;
  bool empty() const { return status.empty(); }
};

// Work counters for one SolveLp call (micro_solver reports these).
struct LpStats {
  int phase1_iterations = 0;  // Primal Phase-1 pivots (artificial cleanup).
  int phase2_iterations = 0;  // Primal Phase-2 pivots.
  int dual_iterations = 0;    // Dual simplex pivots (warm re-optimization).
  int64_t ftran = 0;          // Forward basis solves B⁻¹a.
  int64_t btran = 0;          // Backward basis solves yᵀB⁻¹.
  int refactorizations = 0;   // Eta-file reinversions.
  bool warm_basis_used = false;  // The start basis survived install+repair.
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  // Structural variable values (empty unless kOptimal / kIterationLimit).
  std::vector<double> values;
  // Total simplex pivots (phase 1 + phase 2 + dual).
  int iterations = 0;
  // Final basis (empty unless kOptimal / kIterationLimit); reusable as
  // SimplexOptions::start_basis for a nearby model.
  LpBasis basis;
  LpStats stats;
};

struct SimplexOptions {
  // Hard cap on pivots across both phases; 0 means "derived from model size".
  int max_iterations = 0;
  // Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  // Bound/feasibility tolerance.
  double feasibility_tol = 1e-7;
  // Run presolve reductions first (solver/presolve.h); branch-and-bound
  // nodes benefit most (their bound fixings eliminate variables outright).
  // A start basis is mapped through the reductions (see presolve.h).
  bool presolve = true;
  // Starting basis hint (e.g. the parent node's optimal basis). Empty means
  // cold start. Never changes the returned solution, only the pivot count.
  LpBasis start_basis;
};

// Solves the LP relaxation of `model` (integrality is ignored).
LpSolution SolveLp(const LpModel& model, const SimplexOptions& options = {});

// A model's constraint data in the simplex's working form, built once and
// then shared read-only: the structural matrix by column (CSC, each column's
// entries in ascending row order) and by row, row right-hand sides, and
// bounds and objective over the structural variables followed by one slack
// per row (a row's sense becomes its slack's bounds). Branch-and-bound nodes
// differ from their model only in variable bounds, so every node LP of a
// MILP solve runs on one core plus a bound overlay. Holds `model` by
// reference; the model must outlive the core and not change while it lives.
struct LpCore {
  explicit LpCore(const LpModel& model);

  const LpModel& model;
  int num_rows;
  int num_variables;
  std::vector<int> col_start;  // num_variables + 1 offsets into col_row/col_value.
  std::vector<int> col_row;
  std::vector<double> col_value;
  std::vector<int> row_start;  // num_rows + 1 offsets into row_col/row_value.
  std::vector<int> row_col;
  std::vector<double> row_value;
  std::vector<double> rhs;
  std::vector<double> lower, upper, objective;  // num_variables + num_rows.
};

// One variable-bound override applied over the model's bounds (a branching
// decision). Overrides apply in order, so a later one for the same variable
// wins.
struct BoundFix {
  int var;
  double lower;
  double upper;
};

class SimplexSolver;

// Simplex state kept alive across a sequence of solves on one thread: basis,
// values, eta file and scratch vectors keep their allocations from one
// branch-and-bound node to the next. Not thread-safe; use one per worker.
class LpWorkspace {
 public:
  LpWorkspace();
  ~LpWorkspace();  // Out of line: SimplexSolver is complete only in simplex.cc.

  // Solves the relaxation of core.model with `fixes` applied over its
  // variable bounds. Pivot for pivot the same as SolveLp on a copy of the
  // model whose bounds were set to `fixes`.
  LpSolution Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                   const SimplexOptions& options);

 private:
  std::unique_ptr<SimplexSolver> solver_;
  std::vector<double> lower_, upper_;  // Node bounds handed to presolve.
};

}  // namespace threesigma

#endif  // SRC_SOLVER_SIMPLEX_H_
