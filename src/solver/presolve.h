// LP presolve: cheap reductions applied before the simplex runs.
//
// Branch-and-bound fixes indicator variables by collapsing their bounds, so
// deep nodes carry many fixed variables and rows made redundant by those
// fixings. Presolve removes them:
//   1. fixed variables (lower == upper) are substituted into row activities,
//   2. variables appearing in no row move to their objective-best bound,
//   3. rows that cannot bind under the remaining bounds are dropped, and
//      rows proven unsatisfiable flag infeasibility outright.
// The reduced model is solved and the solution expanded back. SolveLp runs
// presolve by default (SimplexOptions::presolve).

#ifndef SRC_SOLVER_PRESOLVE_H_
#define SRC_SOLVER_PRESOLVE_H_

#include <span>
#include <vector>

#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

struct PresolveResult {
  // Immediate verdicts (when set, `reduced` is meaningless).
  bool proven_infeasible = false;
  bool proven_unbounded = false;

  LpModel reduced;
  // reduced variable index -> original variable index.
  std::vector<int> var_map;
  // reduced row index -> original row index.
  std::vector<int> row_map;
  // Values assigned to eliminated original variables.
  std::vector<double> eliminated_values;  // Indexed by original var; valid
  std::vector<bool> eliminated;           // where `eliminated[v]` is true.
  // Which bound the eliminated variable rests at (for basis reconstruction).
  std::vector<bool> eliminated_at_upper;

  int rows_removed = 0;
  int vars_removed = 0;

  // Expands a reduced-space solution to the original variable space.
  std::vector<double> ExpandSolution(const std::vector<double>& reduced_values) const;

  // Basis translation across the reductions, so warm starts survive presolve.
  // Both directions are best-effort: a dimension mismatch yields an empty
  // basis (the simplex then cold-starts / the caller gets no hint), and a
  // reduced basis whose basic count no longer matches the reduced row count
  // is repaired inside the simplex install. `num_vars` / `num_rows` are the
  // ORIGINAL model dimensions.
  //
  // To reduced space: surviving variables and rows keep their status;
  // eliminated entries are dropped.
  LpBasis MapBasisToReduced(const LpBasis& full, int num_vars, int num_rows) const;
  // To full space: eliminated variables rest at their assigned bound, slacks
  // of removed (redundant) rows become basic — a removed row can never bind,
  // so its slack is strictly interior and basic is the natural status.
  LpBasis MapBasisToFull(const LpBasis& reduced_basis, int num_vars, int num_rows) const;
};

PresolveResult Presolve(const LpModel& model);
// Presolves `model` with its variable bounds replaced by `lower`/`upper`
// (one entry per variable; a branch-and-bound node's bounds).
PresolveResult Presolve(const LpModel& model, std::span<const double> lower,
                        std::span<const double> upper);

}  // namespace threesigma

#endif  // SRC_SOLVER_PRESOLVE_H_
