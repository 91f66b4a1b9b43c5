#include "src/solver/presolve.h"

#include <cmath>

#include "src/common/check.h"

namespace threesigma {
namespace {

constexpr double kTol = 1e-9;

}  // namespace

std::vector<double> PresolveResult::ExpandSolution(
    const std::vector<double>& reduced_values) const {
  TS_CHECK_EQ(reduced_values.size(), var_map.size());
  std::vector<double> full = eliminated_values;
  for (size_t r = 0; r < var_map.size(); ++r) {
    full[static_cast<size_t>(var_map[r])] = reduced_values[r];
  }
  return full;
}

LpBasis PresolveResult::MapBasisToReduced(const LpBasis& full, int num_vars,
                                          int num_rows) const {
  LpBasis out;
  if (static_cast<int>(full.status.size()) != num_vars + num_rows) {
    return out;
  }
  out.status.reserve(var_map.size() + row_map.size());
  for (const int v : var_map) {
    out.status.push_back(full.status[static_cast<size_t>(v)]);
  }
  for (const int r : row_map) {
    out.status.push_back(full.status[static_cast<size_t>(num_vars + r)]);
  }
  return out;
}

LpBasis PresolveResult::MapBasisToFull(const LpBasis& reduced_basis, int num_vars,
                                       int num_rows) const {
  LpBasis out;
  if (reduced_basis.status.size() != var_map.size() + row_map.size()) {
    return out;
  }
  out.status.assign(static_cast<size_t>(num_vars + num_rows), BasisStatus::kAtLower);
  for (int v = 0; v < num_vars; ++v) {
    if (eliminated[static_cast<size_t>(v)] && eliminated_at_upper[static_cast<size_t>(v)]) {
      out.status[static_cast<size_t>(v)] = BasisStatus::kAtUpper;
    }
  }
  for (int r = 0; r < num_rows; ++r) {
    out.status[static_cast<size_t>(num_vars + r)] = BasisStatus::kBasic;
  }
  for (size_t i = 0; i < var_map.size(); ++i) {
    out.status[static_cast<size_t>(var_map[i])] = reduced_basis.status[i];
  }
  for (size_t i = 0; i < row_map.size(); ++i) {
    out.status[static_cast<size_t>(num_vars + row_map[i])] =
        reduced_basis.status[var_map.size() + i];
  }
  return out;
}

PresolveResult Presolve(const LpModel& model) {
  std::vector<double> lower(static_cast<size_t>(model.num_variables()));
  std::vector<double> upper(lower.size());
  for (int v = 0; v < model.num_variables(); ++v) {
    lower[static_cast<size_t>(v)] = model.lower(v);
    upper[static_cast<size_t>(v)] = model.upper(v);
  }
  return Presolve(model, lower, upper);
}

PresolveResult Presolve(const LpModel& model, std::span<const double> lower,
                        std::span<const double> upper) {
  TS_CHECK_EQ(static_cast<int>(lower.size()), model.num_variables());
  TS_CHECK_EQ(static_cast<int>(upper.size()), model.num_variables());
  PresolveResult result;
  const int n = model.num_variables();
  result.eliminated_values.assign(static_cast<size_t>(n), 0.0);
  result.eliminated.assign(static_cast<size_t>(n), false);
  result.eliminated_at_upper.assign(static_cast<size_t>(n), false);

  // Pass 1: find which variables appear in any row.
  std::vector<bool> in_rows(static_cast<size_t>(n), false);
  for (const LpRow& row : model.rows()) {
    for (const LpTerm& t : row.terms) {
      in_rows[static_cast<size_t>(t.var)] = true;
    }
  }

  // Eliminate fixed variables and row-free variables.
  for (int v = 0; v < n; ++v) {
    const double lo = lower[static_cast<size_t>(v)];
    const double up = upper[static_cast<size_t>(v)];
    if (up - lo <= kTol) {
      result.eliminated[static_cast<size_t>(v)] = true;
      result.eliminated_values[static_cast<size_t>(v)] = lo;
      continue;
    }
    if (!in_rows[static_cast<size_t>(v)]) {
      // Move to the objective-preferred bound.
      const double c = model.objective(v);
      double pick;
      if (c > 0.0) {
        pick = up;
      } else if (c < 0.0) {
        pick = lo;
      } else {
        pick = lo > -kLpInfinity ? lo : up;
      }
      if (pick >= kLpInfinity || pick <= -kLpInfinity) {
        result.proven_unbounded = true;
        return result;
      }
      result.eliminated[static_cast<size_t>(v)] = true;
      result.eliminated_values[static_cast<size_t>(v)] = pick;
      result.eliminated_at_upper[static_cast<size_t>(v)] = pick == up;
    }
  }

  // Build the reduced variable set.
  std::vector<int> new_index(static_cast<size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (result.eliminated[static_cast<size_t>(v)]) {
      ++result.vars_removed;
      continue;
    }
    new_index[static_cast<size_t>(v)] = result.reduced.AddVariable(
        lower[static_cast<size_t>(v)], upper[static_cast<size_t>(v)], model.objective(v),
        model.var_name(v));
    result.var_map.push_back(v);
  }

  // Rebuild rows: substitute eliminated variables, drop non-binding rows.
  for (int row_index = 0; row_index < model.num_rows(); ++row_index) {
    const LpRow& row = model.row(row_index);
    double rhs = row.rhs;
    std::vector<LpTerm> terms;
    terms.reserve(row.terms.size());
    // Activity bounds of the remaining terms (for redundancy detection).
    double min_activity = 0.0;
    double max_activity = 0.0;
    bool min_unbounded = false;
    bool max_unbounded = false;
    for (const LpTerm& t : row.terms) {
      if (result.eliminated[static_cast<size_t>(t.var)]) {
        rhs -= t.coeff * result.eliminated_values[static_cast<size_t>(t.var)];
        continue;
      }
      terms.push_back(LpTerm{new_index[static_cast<size_t>(t.var)], t.coeff});
      const double lo = lower[static_cast<size_t>(t.var)];
      const double up = upper[static_cast<size_t>(t.var)];
      const double a = t.coeff * (t.coeff >= 0.0 ? lo : up);
      const double b = t.coeff * (t.coeff >= 0.0 ? up : lo);
      if (a <= -kLpInfinity || a >= kLpInfinity) {
        min_unbounded = true;
      } else {
        min_activity += a;
      }
      if (b <= -kLpInfinity || b >= kLpInfinity) {
        max_unbounded = true;
      } else {
        max_activity += b;
      }
    }

    if (terms.empty()) {
      // Fully substituted: the row is a pure consistency check.
      const bool ok = (row.sense == RowSense::kLessEqual && 0.0 <= rhs + kTol) ||
                      (row.sense == RowSense::kGreaterEqual && 0.0 >= rhs - kTol) ||
                      (row.sense == RowSense::kEqual && std::fabs(rhs) <= kTol);
      if (!ok) {
        result.proven_infeasible = true;
        return result;
      }
      ++result.rows_removed;
      continue;
    }

    // Redundancy: the row can never bind given variable bounds.
    if (row.sense == RowSense::kLessEqual && !max_unbounded && max_activity <= rhs + kTol) {
      ++result.rows_removed;
      continue;
    }
    if (row.sense == RowSense::kGreaterEqual && !min_unbounded &&
        min_activity >= rhs - kTol) {
      ++result.rows_removed;
      continue;
    }
    // Infeasibility: the row can never be satisfied.
    if (row.sense == RowSense::kLessEqual && !min_unbounded && min_activity > rhs + kTol) {
      result.proven_infeasible = true;
      return result;
    }
    if (row.sense == RowSense::kGreaterEqual && !max_unbounded &&
        max_activity < rhs - kTol) {
      result.proven_infeasible = true;
      return result;
    }
    if (row.sense == RowSense::kEqual && !min_unbounded && !max_unbounded &&
        (min_activity > rhs + kTol || max_activity < rhs - kTol)) {
      result.proven_infeasible = true;
      return result;
    }

    result.reduced.AddRow(row.sense, rhs, std::move(terms), row.name);
    result.row_map.push_back(row_index);
  }
  return result;
}

}  // namespace threesigma
