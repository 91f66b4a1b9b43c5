#include "src/solver/lp_model.h"

#include <cmath>

#include "src/common/check.h"

namespace threesigma {

bool RowSatisfied(RowSense sense, double lhs, double rhs, double tol) {
  switch (sense) {
    case RowSense::kLessEqual:
      return !(lhs > rhs + tol);
    case RowSense::kGreaterEqual:
      return !(lhs < rhs - tol);
    case RowSense::kEqual:
      return !(std::fabs(lhs - rhs) > tol);
  }
  return true;
}

int LpModel::AddVariable(double lower, double upper, double objective, std::string name) {
  TS_CHECK_LE(lower, upper);
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  var_names_.push_back(std::move(name));
  return static_cast<int>(lower_.size()) - 1;
}

int LpModel::AddRow(RowSense sense, double rhs, std::vector<LpTerm> terms, std::string name) {
  // Coalesce duplicate variable indices (sum their coefficients, keeping the
  // first occurrence's position) and drop resulting zeros. Duplicate terms
  // would otherwise corrupt the row depending on which solver path scans it.
  std::vector<LpTerm> pruned;
  pruned.reserve(terms.size());
  std::vector<int> slot_of_var;  // var -> index into `pruned` + 1, 0 = absent.
  for (const LpTerm& t : terms) {
    TS_CHECK_GE(t.var, 0);
    TS_CHECK_LT(t.var, num_variables());
    if (t.coeff == 0.0) {
      continue;
    }
    if (static_cast<size_t>(t.var) >= slot_of_var.size()) {
      slot_of_var.resize(static_cast<size_t>(t.var) + 1, 0);
    }
    const int slot = slot_of_var[static_cast<size_t>(t.var)];
    if (slot == 0) {
      pruned.push_back(t);
      slot_of_var[static_cast<size_t>(t.var)] = static_cast<int>(pruned.size());
    } else {
      pruned[static_cast<size_t>(slot - 1)].coeff += t.coeff;
    }
  }
  // Re-drop terms whose coalesced coefficient cancelled to zero.
  size_t keep = 0;
  for (const LpTerm& t : pruned) {
    if (t.coeff != 0.0) {
      pruned[keep++] = t;
    }
  }
  pruned.resize(keep);
  rows_.push_back(LpRow{sense, rhs, std::move(pruned), std::move(name)});
  return static_cast<int>(rows_.size()) - 1;
}

void LpModel::SetVariableBounds(int var, double lower, double upper) {
  TS_CHECK_GE(var, 0);
  TS_CHECK_LT(var, num_variables());
  TS_CHECK_LE(lower, upper);
  lower_[var] = lower;
  upper_[var] = upper;
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  TS_CHECK_EQ(static_cast<int>(x.size()), num_variables());
  double total = 0.0;
  for (int i = 0; i < num_variables(); ++i) {
    total += objective_[i] * x[i];
  }
  return total;
}

bool LpModel::IsFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) {
    return false;
  }
  for (int i = 0; i < num_variables(); ++i) {
    if (x[i] < lower_[i] - tol || x[i] > upper_[i] + tol) {
      return false;
    }
  }
  for (const LpRow& row : rows_) {
    double lhs = 0.0;
    for (const LpTerm& t : row.terms) {
      lhs += t.coeff * x[t.var];
    }
    if (!RowSatisfied(row.sense, lhs, row.rhs, tol)) {
      return false;
    }
  }
  return true;
}

}  // namespace threesigma
