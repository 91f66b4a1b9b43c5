// Linear program model builder.
//
// 3σSched compiles each scheduling cycle into a 0/1 MILP (§4.3.3): one binary
// indicator per placement option, at-most-one-option demand rows per job, and
// expected-capacity rows per (resource group, time slot). LpModel is the
// row-wise builder that tests and the synthetic generators use; the solvers
// run on its LpCore (simplex.h), which the scheduler emits directly.
//
// Conventions: the objective is always MAXIMIZED; variables have explicit
// [lower, upper] bounds (use kLpInfinity for unbounded).

#ifndef SRC_SOLVER_LP_MODEL_H_
#define SRC_SOLVER_LP_MODEL_H_

#include <string>
#include <vector>

namespace threesigma {

inline constexpr double kLpInfinity = 1e30;

enum class RowSense {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

struct LpTerm {
  int var;
  double coeff;
};

struct LpRow {
  RowSense sense;
  double rhs;
  std::vector<LpTerm> terms;
  std::string name;
};

// True when a row with activity `lhs` meets its sense and right-hand side
// within `tol` (LpModel::IsFeasible and LpCore::IsFeasible).
bool RowSatisfied(RowSense sense, double lhs, double rhs, double tol);

class LpModel {
 public:
  // Returns the new variable's index. `objective` is the maximization
  // coefficient.
  int AddVariable(double lower, double upper, double objective, std::string name = "");

  // Returns the new row's index. Zero-coefficient terms are dropped (the
  // paper's §4.3.6 "internal pruning of generated MILP expressions").
  int AddRow(RowSense sense, double rhs, std::vector<LpTerm> terms, std::string name = "");

  // Tightens/relaxes a variable's box; used by branch-and-bound to fix
  // branching variables.
  void SetVariableBounds(int var, double lower, double upper);

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double lower(int var) const { return lower_[var]; }
  double upper(int var) const { return upper_[var]; }
  double objective(int var) const { return objective_[var]; }
  const std::string& var_name(int var) const { return var_names_[var]; }
  const LpRow& row(int r) const { return rows_[r]; }
  const std::vector<LpRow>& rows() const { return rows_; }

  // Objective value of an assignment (no feasibility check).
  double ObjectiveValue(const std::vector<double>& x) const;
  // True when `x` satisfies all bounds and rows within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<std::string> var_names_;
  std::vector<LpRow> rows_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_LP_MODEL_H_
