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
//     re-optimizes with the bounded-variable dual simplex, and an import
//     that is neither (last cycle's basis on this cycle's model) starts with
//     shifted bounds: each violated basic bound is widened to the variable's
//     value, primal Phase 2 optimizes the shifted problem, and the dual
//     simplex cleans up once the bounds are restored,
//   - a branch-and-bound child differs from its parent by one bound, so it
//     starts from the parent's live end state rather than a status vector:
//     the parent exports its factored basis (eta file included) and exact
//     reduced costs once (FactoredStart), and the child installs them,
//     recomputes its basic values and runs the dual simplex at once, with
//     no reinversion and no dual-feasibility scan,
//   - the dual simplex carries its reduced costs from pivot to pivot,
//     updating them by the pivot row (formed row-wise over the nonzeros of
//     the basis-inverse row), and recomputes them exactly at every
//     reinversion.
// A warm run that gives up falls back to a cold start, so a warm start can
// never change the *answer*, only the pivot count.
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
  int shifted_bounds = 0;  // Basic bounds the shifted-bound warm start widened.
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  // Structural variable values (empty unless kOptimal / kIterationLimit).
  std::vector<double> values;
  // Total simplex pivots (phase 1 + phase 2 + dual).
  int iterations = 0;
  // Final basis (empty unless kOptimal / kIterationLimit); reusable as
  // SimplexOptions::start_basis for a nearby model (the scheduler maps it
  // onto the next cycle's root). A branch-and-bound child does not start
  // from it: it resumes its parent's factored state (LpWorkspace::ExportStart).
  LpBasis basis;
  LpStats stats;
};

struct SimplexOptions {
  // Hard cap on pivots across both phases; 0 means "derived from model size".
  int max_iterations = 0;
  // Starting basis hint (e.g. last cycle's root basis mapped onto this
  // model). Empty means cold start. Never changes the returned solution,
  // only the pivot count. It is reinverted from the statuses; a child that
  // has its parent's live state resumes from that instead (LpWorkspace).
  LpBasis start_basis;
};

// A program's constraint data in the simplex's working form, built once and
// then shared read-only: the structural matrix by column (CSC, each column's
// entries in ascending row order) and by row (CSR, the CSC's transpose, so
// each row's entries in ascending column order), row right-hand sides, and
// bounds and objective over the structural variables followed by one slack
// per row (a row's sense becomes its slack's bounds). Branch-and-bound nodes
// differ from their program only in variable bounds, so every node LP of a
// MILP solve runs on one core plus a bound overlay. The scheduler emits its
// cycle's core column by column (LpCoreBuilder); LpModel builds one through
// the same builder. The core owns its arrays.
struct LpCore {
  LpCore() = default;
  explicit LpCore(const LpModel& model);

  // The sense of row r, read back from its slack's bounds.
  RowSense row_sense(int r) const;
  // A x over the structural variables: the CSC columns of the nonzero
  // entries of x, in ascending variable order. Each row thus sums its
  // nonzero terms in ascending variable order, bit for bit the row-by-row
  // sum over an LpModel whose row terms ascend by variable.
  void RowActivities(const std::vector<double>& x, std::vector<double>* activity) const;
  // Objective value of an assignment (no feasibility check).
  double ObjectiveValue(const std::vector<double>& x) const;
  // True when `x` satisfies all bounds and rows within `tol`: LpModel's
  // comparisons, on RowActivities' sums.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  int num_rows = 0;
  int num_variables = 0;
  std::vector<int> col_start{0};  // num_variables + 1 offsets into col_row/col_value.
  std::vector<int> col_row;
  std::vector<double> col_value;
  std::vector<int> row_start;  // num_rows + 1 offsets into row_col/row_value.
  std::vector<int> row_col;
  std::vector<double> row_value;
  std::vector<double> rhs;
  std::vector<double> lower, upper, objective;  // num_variables + num_rows.
};

// Assembles an LpCore column by column: NewRow declares a row, NewColumn
// starts a structural column, and AddEntry adds an entry to the column last
// started. A column's entries come in strictly ascending row order and name
// declared rows; every column has a finite bound. Zero entries are dropped,
// as LpModel::AddRow drops them. Build makes the CSR as the CSC's transpose
// and appends one slack per row.
class LpCoreBuilder {
 public:
  int NewRow(RowSense sense, double rhs);
  int NewColumn(double lower, double upper, double objective);
  void AddEntry(int row, double value);
  LpCore Build();

 private:
  LpCore core_;
  std::vector<RowSense> sense_;
};

// Solves the LP relaxation of `core` (integrality is ignored).
LpSolution SolveLp(const LpCore& core, const SimplexOptions& options = {});
// The same on LpCore(model).
LpSolution SolveLp(const LpModel& model, const SimplexOptions& options = {});

// One variable-bound override applied over the core's bounds (a branching
// decision). Overrides apply in order, so a later one for the same variable
// wins.
struct BoundFix {
  int var;
  double lower;
  double upper;
};

class SimplexSolver;

// The live end state of an LP solved to optimality on a full LpCore: its
// basis, variable statuses, product-form eta file and exact reduced costs.
// Immutable once exported and shared between the siblings that resume it.
// Defined in simplex.cc; only LpWorkspace reads it.
struct FactoredStart;

// Simplex state kept alive across a sequence of solves on one thread: basis,
// values, eta file and scratch vectors keep their allocations from one
// branch-and-bound node to the next. Not thread-safe; use one per worker.
class LpWorkspace {
 public:
  LpWorkspace();
  ~LpWorkspace();  // Out of line: SimplexSolver is complete only in simplex.cc.

  // Solves the relaxation of `core` with `fixes` applied over its variable
  // bounds. Pivot for pivot the same as SolveLp on a copy of the program
  // whose bounds were set to `fixes`.
  LpSolution Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                   const SimplexOptions& options);

  // Solves the same relaxation starting from `start`, the exported state of
  // a parent LP on the same core whose bounds `fixes` only tighten (a
  // branch-and-bound child): installs the parent's factored basis and
  // reduced costs, recomputes the basic values under the new bounds, and
  // re-optimizes with the dual simplex. A dual run that gives up falls back
  // to the cold start, so the answer is Solve's, never a different one.
  LpSolution SolveFrom(const LpCore& core, const std::vector<BoundFix>& fixes,
                       const FactoredStart& start);

  // The end state of the last Solve or SolveFrom, for its children, with
  // the exact reduced costs of its final pricing scan (a fresh BTRAN). Null
  // unless that run reached kOptimal with no Phase-1 artificial left in the
  // basis. Call it before the next solve on this workspace.
  std::shared_ptr<const FactoredStart> ExportStart();

 private:
  std::unique_ptr<SimplexSolver> solver_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_SIMPLEX_H_
