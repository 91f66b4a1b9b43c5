#include "src/solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"
#include "src/solver/presolve.h"

namespace threesigma {
namespace {

constexpr double kPivotTol = 1e-9;
// Pivots between eta-file reinversions. Each pivot appends one eta, so this
// bounds both FTRAN/BTRAN cost growth and numerical drift of the
// incrementally-updated basic values (reinversion recomputes them exactly).
constexpr int kRefactorInterval = 64;
// Consecutive failed reinversions after which a run counts as broken down
// (see Refactorize). Transient failure streaks on scheduler models were at
// most 10 long over about 700 benchmark instances; a singular basis never
// recovers.
constexpr int kMaxFailedReinversions = 32;

}  // namespace

// Internal solver state over the extended variable set:
//   [0, n)            structural variables
//   [n, n+m)          slack variables (one per row)
//   [n+m, n+m+k)      Phase-1 artificials (cold starts only)
// One object serves a sequence of solves; each Solve starts from the state a
// fresh object would have, so only allocations carry over between solves.
class SimplexSolver {
 public:
  LpSolution Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                   const SimplexOptions& options);

 private:
  // Points the solver at `core`, copies its extended bounds and objective,
  // applies `fixes`, and resets every per-solve field.
  void Bind(const LpCore& core, const std::vector<BoundFix>& fixes,
            const SimplexOptions& options);
  // Cold start: structural vars parked at their bound nearest zero, slack
  // basis where residuals fit, Phase-1 artificials where they do not.
  void ColdStart();
  // Installs options_->start_basis (statuses over structural + slack vars)
  // with repair; returns false when the basis is unusable outright.
  bool TryWarmStart();

  // --- Eta-file basis machinery -------------------------------------------
  // Factorizes the basis given by `proposed` (any length), assigning pivot
  // rows and rewriting basis_/status_/value_ for demoted or promoted
  // variables. Strict mode TS_CHECKs instead of repairing (mid-run
  // reinversions of a basis maintained by nonzero pivots must succeed).
  bool FactorFromSet(std::vector<int> proposed, bool strict);
  void ResetToSlackBasis();
  void Ftran(std::vector<double>* x);
  void Btran(std::vector<double>* y);
  void AppendEta(const std::vector<double>& column, int pivot_row);
  void RecomputeBasicValues();
  // FactorFromSet(basis_, strict) + value recompute. False when reinversion
  // has kept failing long enough that the run has broken down numerically;
  // the engines then set broken_down_ and give up.
  bool Refactorize();

  // --- Iteration engines ---------------------------------------------------
  // Primal simplex on the current (phase-dependent) objective.
  LpStatus RunPrimal(bool phase1);
  // Bounded-variable dual simplex from a dual-feasible basis. Returns
  // kOptimal when primal feasibility is restored, kInfeasible when a violated
  // row admits no entering column (proven empty), kIterationLimit when it
  // gives up (caller falls back to a cold start; never changes the answer).
  LpStatus RunDual();

  // --- Pricing -------------------------------------------------------------
  // Candidate-list partial pricing: re-price the current list, else harvest a
  // fresh list with one full scan. Returns the entering variable or -1.
  int PickEntering(const std::vector<double>& y, int* direction);
  void RebuildCandidates(const std::vector<double>& y);
  int PriceList(const std::vector<double>& y, int* direction);

  // --- Helpers -------------------------------------------------------------
  template <typename Fn>
  void ForEachColumnEntry(int j, Fn&& fn) const {
    if (j < n_) {
      for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        fn(col_row_[k], col_val_[k]);
      }
    } else if (j < n_ + m_) {
      fn(j - n_, 1.0);
    } else {
      fn(artificial_row_[j - n_ - m_], artificial_sign_[j - n_ - m_]);
    }
  }
  double ReducedCost(int j, const std::vector<double>& y) const;
  // Full scans (pricing, dual-feasibility repair): fills reduced_ for every
  // structural column at once, then ScanReducedCost reads it (and prices
  // slacks and artificials directly).
  void ComputeStructuralReducedCosts(const std::vector<double>& y);
  double ScanReducedCost(int j, const std::vector<double>& y) const;
  void ComputeDuals(std::vector<double>* y);
  bool PrimalFeasible() const;
  // Flips nonbasic variables whose reduced cost has the wrong sign to their
  // other (finite) bound; false when a flip target is infinite.
  bool MakeDualFeasible(const std::vector<double>& y);
  void ParkNonbasic(int j, BasisStatus preferred);
  LpSolution Finish(LpStatus status);

  const LpCore* core_ = nullptr;
  const SimplexOptions* options_ = nullptr;
  int m_ = 0;              // rows
  int n_ = 0;              // structural vars
  int total_ = 0;          // structural + slack + artificial
  int num_artificials_ = 0;

  // The core's compressed-sparse-column structural matrix and right-hand
  // sides (read-only, shared).
  const int* col_start_ = nullptr;
  const int* col_row_ = nullptr;
  const double* col_val_ = nullptr;
  const int* row_start_ = nullptr;
  const int* row_col_ = nullptr;
  const double* row_val_ = nullptr;
  const double* rhs_ = nullptr;

  std::vector<double> lower_, upper_, obj_;        // extended, length total_
  std::vector<int> artificial_row_;                // artificial var -> its row
  std::vector<double> artificial_sign_;            // +-1 coefficient of artificial

  std::vector<int> basis_;                         // row -> basic var
  std::vector<BasisStatus> status_;                // extended var statuses
  std::vector<double> value_;                      // extended var values

  // Product-form basis inverse: B⁻¹ = T_K … T_1 where each eta T applies
  //   x[p] /= pivot_value;  x[i] -= v_i * x[p]  (off-pivot entries v_i).
  struct Eta {
    int pivot_row;
    double pivot_value;
    int begin, end;  // Off-pivot entries in the shared pools below.
  };
  std::vector<Eta> etas_;
  std::vector<int> eta_rows_;
  std::vector<double> eta_vals_;
  // The eta file a strict reinversion backs out to (see FactorFromSet).
  std::vector<Eta> saved_etas_;
  std::vector<int> saved_eta_rows_;
  std::vector<double> saved_eta_vals_;

  // Scratch, sized in Bind.
  std::vector<double> y_, alpha_, rho_, work_;
  std::vector<double> reduced_;  // See ComputeStructuralReducedCosts.
  std::vector<char> row_pivoted_, used_;
  std::vector<int> new_basis_, demoted_;
  std::vector<int> cand_;  // Partial-pricing candidate list (indices only —
                           // reduced costs are always re-priced fresh).
  struct Scored {
    double score;
    int j;
  };
  std::vector<Scored> scored_;  // RebuildCandidates scratch.

  LpStats stats_;
  int iterations_ = 0;
  int max_iterations_ = 0;
  int degenerate_streak_ = 0;
  int pivots_since_refactor_ = 0;
  int failed_reinversions_ = 0;  // Consecutive, since the last good one.
  bool broken_down_ = false;     // See Refactorize.
};

double SimplexSolver::ReducedCost(int j, const std::vector<double>& y) const {
  double d = obj_[j];
  ForEachColumnEntry(j, [&](int r, double v) { d -= y[r] * v; });
  return d;
}

double SimplexSolver::ScanReducedCost(int j, const std::vector<double>& y) const {
  return j < n_ ? reduced_[static_cast<size_t>(j)] : ReducedCost(j, y);
}

void SimplexSolver::ComputeStructuralReducedCosts(const std::vector<double>& y) {
  // Row-wise over the nonzeros of y in ascending row order: each column
  // receives its terms in the order ReducedCost subtracts them, and a skipped
  // y_r = 0 term could only flip the sign of a zero result, which no
  // tolerance test or magnitude can tell apart.
  std::copy(obj_.begin(), obj_.begin() + n_, reduced_.begin());
  for (int r = 0; r < m_; ++r) {
    const double yr = y[static_cast<size_t>(r)];
    if (yr == 0.0) {
      continue;
    }
    for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      reduced_[static_cast<size_t>(row_col_[k])] -= yr * row_val_[k];
    }
  }
}

void SimplexSolver::Bind(const LpCore& core, const std::vector<BoundFix>& fixes,
                         const SimplexOptions& options) {
  core_ = &core;
  options_ = &options;
  m_ = core.num_rows;
  n_ = core.num_variables;
  col_start_ = core.col_start.data();
  col_row_ = core.col_row.data();
  col_val_ = core.col_value.data();
  row_start_ = core.row_start.data();
  row_col_ = core.row_col.data();
  row_val_ = core.row_value.data();
  rhs_ = core.rhs.data();
  lower_.assign(core.lower.begin(), core.lower.end());
  upper_.assign(core.upper.begin(), core.upper.end());
  obj_.assign(core.objective.begin(), core.objective.end());
  for (const BoundFix& fix : fixes) {
    TS_CHECK_GE(fix.var, 0);
    TS_CHECK_LT(fix.var, n_);
    TS_CHECK_LE(fix.lower, fix.upper);
    lower_[static_cast<size_t>(fix.var)] = fix.lower;
    upper_[static_cast<size_t>(fix.var)] = fix.upper;
  }
  total_ = n_ + m_;
  num_artificials_ = 0;
  artificial_row_.clear();
  artificial_sign_.clear();
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  cand_.clear();
  stats_ = LpStats{};
  failed_reinversions_ = 0;
  broken_down_ = false;
  iterations_ = 0;
  degenerate_streak_ = 0;
  pivots_since_refactor_ = 0;
  max_iterations_ = options.max_iterations > 0 ? options.max_iterations
                                               : 200 * (n_ + 2 * m_) + 2000;
  y_.assign(static_cast<size_t>(m_), 0.0);
  alpha_.assign(static_cast<size_t>(m_), 0.0);
  rho_.assign(static_cast<size_t>(m_), 0.0);
  reduced_.resize(static_cast<size_t>(n_));
  work_.assign(static_cast<size_t>(m_), 0.0);
}

void SimplexSolver::Ftran(std::vector<double>* x) {
  ++stats_.ftran;
  for (const Eta& e : etas_) {
    double t = (*x)[static_cast<size_t>(e.pivot_row)];
    if (t == 0.0) {
      continue;  // Sparse skip: untouched pivot rows cost nothing.
    }
    t /= e.pivot_value;
    (*x)[static_cast<size_t>(e.pivot_row)] = t;
    for (int k = e.begin; k < e.end; ++k) {
      (*x)[static_cast<size_t>(eta_rows_[static_cast<size_t>(k)])] -=
          eta_vals_[static_cast<size_t>(k)] * t;
    }
  }
}

void SimplexSolver::Btran(std::vector<double>* y) {
  ++stats_.btran;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = (*y)[static_cast<size_t>(it->pivot_row)];
    for (int k = it->begin; k < it->end; ++k) {
      acc -= eta_vals_[static_cast<size_t>(k)] *
             (*y)[static_cast<size_t>(eta_rows_[static_cast<size_t>(k)])];
    }
    (*y)[static_cast<size_t>(it->pivot_row)] = acc / it->pivot_value;
  }
}

void SimplexSolver::AppendEta(const std::vector<double>& column, int pivot_row) {
  Eta e;
  e.pivot_row = pivot_row;
  e.pivot_value = column[static_cast<size_t>(pivot_row)];
  e.begin = static_cast<int>(eta_rows_.size());
  for (int r = 0; r < m_; ++r) {
    const double v = column[static_cast<size_t>(r)];
    if (r != pivot_row && v != 0.0) {
      eta_rows_.push_back(r);
      eta_vals_.push_back(v);
    }
  }
  e.end = static_cast<int>(eta_rows_.size());
  // A unit column pivoting on 1 (a slack, typically) gives the identity eta:
  // x / 1.0 == x exactly, so FTRAN and BTRAN would pass over it without
  // changing a bit. It is not stored.
  if (e.pivot_value == 1.0 && e.end == e.begin) {
    return;
  }
  etas_.push_back(e);
}

void SimplexSolver::ParkNonbasic(int j, BasisStatus preferred) {
  // Rest at the preferred bound when finite, else the other one.
  if (preferred == BasisStatus::kAtLower && lower_[static_cast<size_t>(j)] > -kLpInfinity) {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
    value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
  } else if (upper_[static_cast<size_t>(j)] < kLpInfinity) {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtUpper;
    value_[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
  } else {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
    value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
  }
}

bool SimplexSolver::FactorFromSet(std::vector<int> proposed, bool strict) {
  ++stats_.refactorizations;
  // Strict mode must be able to back out: a numerically near-singular basis
  // (legal — pivot magnitudes are only bounded below by kPivotTol) fails
  // reinversion, and the run then simply keeps its current eta file.
  if (strict) {
    saved_etas_.swap(etas_);
    saved_eta_rows_.swap(eta_rows_);
    saved_eta_vals_.swap(eta_vals_);
  }
  const auto restore = [&]() {
    etas_.swap(saved_etas_);
    eta_rows_.swap(saved_eta_rows_);
    eta_vals_.swap(saved_eta_vals_);
  };
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  pivots_since_refactor_ = 0;

  // Reinversion order: sparsest columns first (slacks and artificials are
  // unit columns and pivot with zero fill; scheduler bases are then nearly
  // triangular). Deterministic tie-break on variable id.
  const auto nnz = [&](int j) {
    return j < n_ ? col_start_[static_cast<size_t>(j) + 1] - col_start_[static_cast<size_t>(j)]
                  : 1;
  };
  std::sort(proposed.begin(), proposed.end(),
            [&](int a, int b) { return nnz(a) != nnz(b) ? nnz(a) < nnz(b) : a < b; });

  std::vector<char>& row_pivoted = row_pivoted_;
  std::vector<char>& used = used_;
  std::vector<int>& new_basis = new_basis_;
  std::vector<double>& col = work_;
  std::vector<int>& demoted = demoted_;
  row_pivoted.assign(static_cast<size_t>(m_), 0);
  used.assign(static_cast<size_t>(total_), 0);
  new_basis.assign(static_cast<size_t>(m_), -1);
  demoted.clear();
  for (int j : proposed) {
    if (used[static_cast<size_t>(j)]) {
      if (strict) {
        restore();
        return false;
      }
      demoted.push_back(j);
      continue;
    }
    std::fill(col.begin(), col.end(), 0.0);
    ForEachColumnEntry(j, [&](int r, double v) { col[static_cast<size_t>(r)] = v; });
    Ftran(&col);
    int pivot = -1;
    double best = 1e-10;
    for (int r = 0; r < m_; ++r) {
      if (!row_pivoted[static_cast<size_t>(r)] &&
          std::fabs(col[static_cast<size_t>(r)]) > best) {
        best = std::fabs(col[static_cast<size_t>(r)]);
        pivot = r;
      }
    }
    if (pivot < 0) {
      if (strict) {
        restore();
        return false;
      }
      demoted.push_back(j);
      continue;
    }
    AppendEta(col, pivot);
    row_pivoted[static_cast<size_t>(pivot)] = 1;
    new_basis[static_cast<size_t>(pivot)] = j;
    used[static_cast<size_t>(j)] = 1;
  }
  // Complete any unpivoted rows with their own slack (always independent of
  // the already-pivoted set unless numerically degenerate — then give up and
  // let the caller reset to the identity slack basis).
  for (int r = 0; r < m_; ++r) {
    if (row_pivoted[static_cast<size_t>(r)]) {
      continue;
    }
    if (strict) {
      restore();
      return false;
    }
    const int sv = n_ + r;
    if (used[static_cast<size_t>(sv)]) {
      return false;
    }
    std::fill(col.begin(), col.end(), 0.0);
    col[static_cast<size_t>(r)] = 1.0;
    Ftran(&col);
    if (std::fabs(col[static_cast<size_t>(r)]) <= 1e-10) {
      return false;
    }
    AppendEta(col, r);
    row_pivoted[static_cast<size_t>(r)] = 1;
    new_basis[static_cast<size_t>(r)] = sv;
    used[static_cast<size_t>(sv)] = 1;
  }
  for (int j : demoted) {
    if (!used[static_cast<size_t>(j)]) {
      ParkNonbasic(j, BasisStatus::kAtLower);
    }
  }
  basis_.swap(new_basis);
  for (int r = 0; r < m_; ++r) {
    status_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = BasisStatus::kBasic;
  }
  return true;
}

void SimplexSolver::ResetToSlackBasis() {
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  pivots_since_refactor_ = 0;
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic) {
      ParkNonbasic(j, BasisStatus::kAtLower);
    }
  }
  basis_.assign(static_cast<size_t>(m_), -1);
  for (int r = 0; r < m_; ++r) {
    basis_[static_cast<size_t>(r)] = n_ + r;
    status_[static_cast<size_t>(n_ + r)] = BasisStatus::kBasic;
  }
}

bool SimplexSolver::Refactorize() {
  if (FactorFromSet(basis_, /*strict=*/true)) {
    failed_reinversions_ = 0;
    RecomputeBasicValues();
    return true;
  }
  // A numerically singular basis (one pivot barely above kPivotTol) cannot
  // be reinverted. The eta file still represents it, so keep the file and
  // retry after the next interval: the offending column usually leaves
  // within a few. Until it does, the eta file grows by one per pivot and the
  // basic values are never recomputed, so they drift; past this many retries
  // the run has broken down.
  return ++failed_reinversions_ <= kMaxFailedReinversions;
}

void SimplexSolver::RecomputeBasicValues() {
  // w = b - A_N x_N, then x_B = B⁻¹ w via FTRAN.
  work_.assign(rhs_, rhs_ + m_);
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        value_[static_cast<size_t>(j)] == 0.0) {
      continue;
    }
    const double xj = value_[static_cast<size_t>(j)];
    ForEachColumnEntry(j, [&](int r, double v) { work_[static_cast<size_t>(r)] -= v * xj; });
  }
  Ftran(&work_);
  for (int r = 0; r < m_; ++r) {
    value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = work_[static_cast<size_t>(r)];
  }
}

void SimplexSolver::ComputeDuals(std::vector<double>* y) {
  for (int r = 0; r < m_; ++r) {
    (*y)[static_cast<size_t>(r)] = obj_[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
  }
  Btran(y);
}

bool SimplexSolver::PrimalFeasible() const {
  for (int r = 0; r < m_; ++r) {
    const int bv = basis_[static_cast<size_t>(r)];
    const double v = value_[static_cast<size_t>(bv)];
    if (v < lower_[static_cast<size_t>(bv)] - options_->feasibility_tol ||
        v > upper_[static_cast<size_t>(bv)] + options_->feasibility_tol) {
      return false;
    }
  }
  return true;
}

bool SimplexSolver::MakeDualFeasible(const std::vector<double>& y) {
  ComputeStructuralReducedCosts(y);
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;
    }
    const double d = ScanReducedCost(j, y);
    if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
        d > options_->optimality_tol) {
      if (upper_[static_cast<size_t>(j)] >= kLpInfinity) {
        return false;
      }
      status_[static_cast<size_t>(j)] = BasisStatus::kAtUpper;
      value_[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
    } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
               d < -options_->optimality_tol) {
      if (lower_[static_cast<size_t>(j)] <= -kLpInfinity) {
        return false;
      }
      status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
      value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
    }
  }
  return true;
}

void SimplexSolver::ColdStart() {
  // Discard any artificials and warm-start state from a failed install.
  lower_.resize(static_cast<size_t>(n_ + m_));
  upper_.resize(static_cast<size_t>(n_ + m_));
  obj_.resize(static_cast<size_t>(n_ + m_));
  artificial_row_.clear();
  artificial_sign_.clear();
  num_artificials_ = 0;
  total_ = n_ + m_;

  // Initial nonbasic placement for structural vars: the finite bound nearest
  // zero (scheduler variables have lower bound 0, so this is their lower).
  status_.assign(static_cast<size_t>(total_), BasisStatus::kAtLower);
  value_.assign(static_cast<size_t>(total_), 0.0);
  for (int j = 0; j < n_; ++j) {
    ParkNonbasic(j, BasisStatus::kAtLower);
  }

  // Residual of each row with all structural vars at their initial bound.
  std::vector<double>& residual = work_;
  residual.assign(rhs_, rhs_ + m_);
  for (int j = 0; j < n_; ++j) {
    const double xj = value_[static_cast<size_t>(j)];
    if (xj != 0.0) {
      ForEachColumnEntry(
          j, [&](int r, double v) { residual[static_cast<size_t>(r)] -= v * xj; });
    }
  }

  // Slack starts basic when the residual fits its bounds; otherwise the slack
  // is parked at the bound nearest the residual and an artificial carries the
  // remaining infeasibility.
  basis_.assign(static_cast<size_t>(m_), -1);
  for (int r = 0; r < m_; ++r) {
    const int sv = n_ + r;
    const double res = residual[static_cast<size_t>(r)];
    if (res >= lower_[static_cast<size_t>(sv)] - options_->feasibility_tol &&
        res <= upper_[static_cast<size_t>(sv)] + options_->feasibility_tol) {
      basis_[static_cast<size_t>(r)] = sv;
      status_[static_cast<size_t>(sv)] = BasisStatus::kBasic;
      value_[static_cast<size_t>(sv)] = res;
      continue;
    }
    const bool below = res < lower_[static_cast<size_t>(sv)];
    const double parked = below ? lower_[static_cast<size_t>(sv)] : upper_[static_cast<size_t>(sv)];
    status_[static_cast<size_t>(sv)] = below ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(sv)] = parked;
    const double gap = res - parked;
    const int av = n_ + m_ + num_artificials_;
    artificial_row_.push_back(r);
    artificial_sign_.push_back(gap >= 0.0 ? 1.0 : -1.0);
    lower_.push_back(0.0);
    upper_.push_back(kLpInfinity);
    obj_.push_back(0.0);
    status_.push_back(BasisStatus::kBasic);
    value_.push_back(std::fabs(gap));
    basis_[static_cast<size_t>(r)] = av;
    ++num_artificials_;
  }
  total_ = n_ + m_ + num_artificials_;

  cand_.clear();
  degenerate_streak_ = 0;
  broken_down_ = false;
  Refactorize();  // Unit columns only: always reinverts.
}

bool SimplexSolver::TryWarmStart() {
  const LpBasis& b = options_->start_basis;
  if (static_cast<int>(b.status.size()) != n_ + m_) {
    return false;  // Different model shape; the hint is meaningless.
  }
  total_ = n_ + m_;
  num_artificials_ = 0;
  status_.assign(static_cast<size_t>(total_), BasisStatus::kAtLower);
  value_.assign(static_cast<size_t>(total_), 0.0);
  std::vector<int> proposed;
  proposed.reserve(static_cast<size_t>(m_));
  for (int j = 0; j < total_; ++j) {
    const BasisStatus s = b.status[static_cast<size_t>(j)];
    if (s == BasisStatus::kBasic) {
      status_[static_cast<size_t>(j)] = BasisStatus::kBasic;
      proposed.push_back(j);
    } else {
      // Statuses are symbolic, so "at lower" snaps to the *current* bound —
      // which is how a parent basis stays valid after branching tightens the
      // child's box.
      ParkNonbasic(j, s);
    }
  }
  basis_.assign(static_cast<size_t>(m_), -1);
  if (!FactorFromSet(std::move(proposed), /*strict=*/false)) {
    ResetToSlackBasis();
  }
  RecomputeBasicValues();
  cand_.clear();
  degenerate_streak_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

void SimplexSolver::RebuildCandidates(const std::vector<double>& y) {
  ComputeStructuralReducedCosts(y);
  std::vector<Scored>& scored = scored_;
  scored.clear();
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;
    }
    const double d = ScanReducedCost(j, y);
    const bool favorable =
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
         d > options_->optimality_tol) ||
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
         d < -options_->optimality_tol);
    if (favorable) {
      scored.push_back(Scored{std::fabs(d), j});
    }
  }
  // Keep the `cap` best. The order (score desc, index asc) is a strict total
  // order, so a partial sort yields exactly the prefix a full sort would.
  const size_t cap = std::min(scored.size(), static_cast<size_t>(std::clamp(total_ / 8, 8, 64)));
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(cap),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      return a.score != b.score ? a.score > b.score : a.j < b.j;
                    });
  cand_.clear();
  for (size_t i = 0; i < cap; ++i) {
    cand_.push_back(scored[i].j);
  }
}

int SimplexSolver::PriceList(const std::vector<double>& y, int* direction) {
  int pick = -1;
  int dir = +1;
  double best = options_->optimality_tol;
  size_t keep = 0;
  for (const int j : cand_) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;  // Entered the basis or got fixed; drop from the list.
    }
    const double d = ReducedCost(j, y);
    int dj = 0;
    if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
        d > options_->optimality_tol) {
      dj = +1;
    } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
               d < -options_->optimality_tol) {
      dj = -1;
    }
    if (dj == 0) {
      continue;  // No longer favorable; drop.
    }
    cand_[keep++] = j;
    if (std::fabs(d) > best) {
      best = std::fabs(d);
      pick = j;
      dir = dj;
    }
  }
  cand_.resize(keep);
  if (pick >= 0) {
    *direction = dir;
  }
  return pick;
}

int SimplexSolver::PickEntering(const std::vector<double>& y, int* direction) {
  const int from_list = PriceList(y, direction);
  if (from_list >= 0) {
    return from_list;
  }
  RebuildCandidates(y);
  if (cand_.empty()) {
    return -1;  // Full scan found nothing favorable: optimal.
  }
  return PriceList(y, direction);
}

// ---------------------------------------------------------------------------
// Primal simplex
// ---------------------------------------------------------------------------

LpStatus SimplexSolver::RunPrimal(bool phase1) {
  while (true) {
    if (iterations_ >= max_iterations_) {
      return LpStatus::kIterationLimit;
    }
    ComputeDuals(&y_);

    // Entering variable: candidate-list Dantzig normally, Bland's-rule full
    // scan under a degeneracy streak (guarantees termination).
    const bool bland = degenerate_streak_ > 2 * (m_ + 8);
    int entering = -1;
    int direction = +1;  // +1: increase from lower; -1: decrease from upper.
    if (bland) {
      for (int j = 0; j < total_ && entering < 0; ++j) {
        if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
            lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
          continue;
        }
        const double d = ReducedCost(j, y_);
        if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
            d > options_->optimality_tol) {
          entering = j;
          direction = +1;
        } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
                   d < -options_->optimality_tol) {
          entering = j;
          direction = -1;
        }
      }
    } else {
      entering = PickEntering(y_, &direction);
    }
    if (entering < 0) {
      return LpStatus::kOptimal;
    }
    ++iterations_;
    if (phase1) {
      ++stats_.phase1_iterations;
    } else {
      ++stats_.phase2_iterations;
    }

    // alpha = B⁻¹ a_entering.
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    ForEachColumnEntry(entering,
                       [&](int r, double v) { alpha_[static_cast<size_t>(r)] = v; });
    Ftran(&alpha_);

    // Ratio test. Moving the entering variable by delta in `direction`
    // changes basic variable r by -direction * alpha[r] * delta.
    double limit = upper_[static_cast<size_t>(entering)] -
                   lower_[static_cast<size_t>(entering)];  // Bound-flip span.
    int leaving_row = -1;
    double leaving_target = 0.0;  // Bound the leaving variable lands on.
    for (int r = 0; r < m_; ++r) {
      const double rate = -static_cast<double>(direction) * alpha_[static_cast<size_t>(r)];
      if (std::fabs(rate) < kPivotTol) {
        continue;
      }
      const int bv = basis_[static_cast<size_t>(r)];
      double ratio;
      double target;
      if (rate < 0.0) {
        // Basic value decreases toward its lower bound.
        if (lower_[static_cast<size_t>(bv)] <= -kLpInfinity) {
          continue;
        }
        ratio = (value_[static_cast<size_t>(bv)] - lower_[static_cast<size_t>(bv)]) / (-rate);
        target = lower_[static_cast<size_t>(bv)];
      } else {
        if (upper_[static_cast<size_t>(bv)] >= kLpInfinity) {
          continue;
        }
        ratio = (upper_[static_cast<size_t>(bv)] - value_[static_cast<size_t>(bv)]) / rate;
        target = upper_[static_cast<size_t>(bv)];
      }
      ratio = std::max(ratio, 0.0);
      const bool better =
          ratio < limit - 1e-12 ||
          (leaving_row >= 0 && ratio < limit + 1e-12 &&
           std::fabs(alpha_[static_cast<size_t>(r)]) >
               std::fabs(alpha_[static_cast<size_t>(leaving_row)]));
      if (better) {
        limit = ratio;
        leaving_row = r;
        leaving_target = target;
      }
    }

    if (limit >= kLpInfinity) {
      return LpStatus::kUnbounded;
    }

    const double step = limit;
    if (step < 1e-11) {
      ++degenerate_streak_;
    } else {
      degenerate_streak_ = 0;
    }

    if (leaving_row < 0) {
      // Bound flip: the entering variable runs to its other bound. Basic
      // values move by -direction * alpha * span (incremental, no solve).
      const double span = step;
      status_[static_cast<size_t>(entering)] =
          status_[static_cast<size_t>(entering)] == BasisStatus::kAtLower
              ? BasisStatus::kAtUpper
              : BasisStatus::kAtLower;
      value_[static_cast<size_t>(entering)] =
          status_[static_cast<size_t>(entering)] == BasisStatus::kAtLower
              ? lower_[static_cast<size_t>(entering)]
              : upper_[static_cast<size_t>(entering)];
      for (int r = 0; r < m_; ++r) {
        const double a = alpha_[static_cast<size_t>(r)];
        if (a != 0.0) {
          value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -=
              static_cast<double>(direction) * span * a;
        }
      }
      continue;
    }

    // Pivot: entering becomes basic, leaving goes to the bound it hit. Basic
    // values update incrementally; the eta file gains one column.
    const int leaving = basis_[static_cast<size_t>(leaving_row)];
    const double entering_value =
        value_[static_cast<size_t>(entering)] + static_cast<double>(direction) * step;
    for (int r = 0; r < m_; ++r) {
      if (r == leaving_row) {
        continue;
      }
      const double a = alpha_[static_cast<size_t>(r)];
      if (a != 0.0) {
        value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -=
            static_cast<double>(direction) * step * a;
      }
    }
    status_[static_cast<size_t>(leaving)] =
        leaving_target == lower_[static_cast<size_t>(leaving)] ? BasisStatus::kAtLower
                                                               : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(leaving)] = leaving_target;
    basis_[static_cast<size_t>(leaving_row)] = entering;
    status_[static_cast<size_t>(entering)] = BasisStatus::kBasic;
    value_[static_cast<size_t>(entering)] = entering_value;

    TS_CHECK_MSG(std::fabs(alpha_[static_cast<size_t>(leaving_row)]) > kPivotTol,
                 "numerically zero pivot");
    AppendEta(alpha_, leaving_row);
    if (++pivots_since_refactor_ >= kRefactorInterval && !Refactorize()) {
      broken_down_ = true;
      return LpStatus::kIterationLimit;
    }
  }
}

// ---------------------------------------------------------------------------
// Dual simplex
// ---------------------------------------------------------------------------

LpStatus SimplexSolver::RunDual() {
  // Safety cap: a dual re-optimization that has not converged in O(m) pivots
  // is degenerate or numerically stuck; the caller cold-starts instead (same
  // answer, just slower), so giving up is always safe.
  const int max_dual = 3 * m_ + 200;
  int dual_pivots = 0;
  while (true) {
    if (iterations_ >= max_iterations_) {
      return LpStatus::kIterationLimit;
    }
    if (dual_pivots >= max_dual) {
      return LpStatus::kIterationLimit;
    }

    // Leaving row: the basic variable with the largest bound violation
    // (tie-break: smallest row index — deterministic).
    int lrow = -1;
    double viol = options_->feasibility_tol;
    bool below = false;
    for (int r = 0; r < m_; ++r) {
      const int bv = basis_[static_cast<size_t>(r)];
      const double v = value_[static_cast<size_t>(bv)];
      const double lo = lower_[static_cast<size_t>(bv)];
      const double up = upper_[static_cast<size_t>(bv)];
      if (lo > -kLpInfinity && lo - v > viol) {
        viol = lo - v;
        lrow = r;
        below = true;
      } else if (up < kLpInfinity && v - up > viol) {
        viol = v - up;
        lrow = r;
        below = false;
      }
    }
    if (lrow < 0) {
      return LpStatus::kOptimal;  // Primal feasibility restored.
    }
    ++iterations_;
    ++stats_.dual_iterations;
    ++dual_pivots;

    // rho = eᵣᵀ B⁻¹ (the pivot row of the basis inverse).
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[static_cast<size_t>(lrow)] = 1.0;
    Btran(&rho_);
    ComputeDuals(&y_);

    // Dual ratio test: among sign-eligible nonbasic columns, enter the one
    // whose reduced cost hits zero first (smallest |d|/|alpha_r|); ties go to
    // the larger pivot magnitude, then the smaller index.
    int entering = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_mag = 0.0;
    for (int j = 0; j < total_; ++j) {
      if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
          lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
        continue;
      }
      double arj = 0.0;
      ForEachColumnEntry(j, [&](int r, double v) { arj += rho_[static_cast<size_t>(r)] * v; });
      if (std::fabs(arj) <= kPivotTol) {
        continue;
      }
      const bool at_lower = status_[static_cast<size_t>(j)] == BasisStatus::kAtLower;
      // x_basic changes by -alpha_r * dx_j; the violated variable must move
      // toward its bound, and the nonbasic can only move off its own bound.
      const bool eligible = below ? (at_lower ? arj < 0.0 : arj > 0.0)
                                  : (at_lower ? arj > 0.0 : arj < 0.0);
      if (!eligible) {
        continue;
      }
      const double d = ReducedCost(j, y_);
      const double slack = std::max(0.0, at_lower ? -d : d);  // Dual headroom.
      const double ratio = slack / std::fabs(arj);
      const bool wins =
          ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           (entering < 0 || std::fabs(arj) > best_mag + 1e-12 ||
            (std::fabs(arj) > best_mag - 1e-12 && j < entering)));
      if (wins) {
        entering = j;
        best_ratio = ratio;
        best_mag = std::fabs(arj);
      }
    }
    if (entering < 0) {
      // No column can repair the violated row: the (child) LP is empty.
      return LpStatus::kInfeasible;
    }

    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    ForEachColumnEntry(entering,
                       [&](int r, double v) { alpha_[static_cast<size_t>(r)] = v; });
    Ftran(&alpha_);
    const double are = alpha_[static_cast<size_t>(lrow)];
    if (std::fabs(are) <= kPivotTol) {
      return LpStatus::kIterationLimit;  // Numerical disagreement; cold-start.
    }

    const int leaving = basis_[static_cast<size_t>(lrow)];
    const double target = below ? lower_[static_cast<size_t>(leaving)]
                                : upper_[static_cast<size_t>(leaving)];
    // Drive the leaving variable exactly onto its violated bound.
    const double dxj = (value_[static_cast<size_t>(leaving)] - target) / are;
    for (int r = 0; r < m_; ++r) {
      if (r == lrow) {
        continue;
      }
      const double a = alpha_[static_cast<size_t>(r)];
      if (a != 0.0) {
        value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -= a * dxj;
      }
    }
    const double entering_value = value_[static_cast<size_t>(entering)] + dxj;
    status_[static_cast<size_t>(leaving)] =
        below ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(leaving)] = target;
    basis_[static_cast<size_t>(lrow)] = entering;
    status_[static_cast<size_t>(entering)] = BasisStatus::kBasic;
    value_[static_cast<size_t>(entering)] = entering_value;
    AppendEta(alpha_, lrow);
    if (++pivots_since_refactor_ >= kRefactorInterval && !Refactorize()) {
      broken_down_ = true;
      return LpStatus::kIterationLimit;
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

LpSolution SimplexSolver::Finish(LpStatus status) {
  LpSolution result;
  result.status = status;
  result.iterations = iterations_;
  if (status == LpStatus::kOptimal || status == LpStatus::kIterationLimit) {
    if (broken_down_) {
      // A cold run broke down: repair the basis (dependent columns make way
      // for slacks) so the exported point and basis agree with each other.
      if (!FactorFromSet(basis_, /*strict=*/false)) {
        ResetToSlackBasis();
      }
    }
    RecomputeBasicValues();  // Squash incremental drift before export.
    result.values.resize(static_cast<size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      // Clamp tiny numerical overshoot back into the box.
      result.values[static_cast<size_t>(j)] =
          std::clamp(value_[static_cast<size_t>(j)], lower_[static_cast<size_t>(j)],
                     upper_[static_cast<size_t>(j)]);
    }
    result.objective = core_->model.ObjectiveValue(result.values);
    result.basis.status.resize(static_cast<size_t>(n_ + m_));
    for (int j = 0; j < n_ + m_; ++j) {
      result.basis.status[static_cast<size_t>(j)] = status_[static_cast<size_t>(j)];
    }
  }
  result.stats = stats_;
  return result;
}

LpSolution SimplexSolver::Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                                const SimplexOptions& options) {
  Bind(core, fixes, options);
  LpSolution result;
  if (m_ == 0) {
    // Pure bound problem: each variable sits at whichever bound its objective
    // prefers.
    result.status = LpStatus::kOptimal;
    result.values.resize(static_cast<size_t>(n_));
    result.basis.status.resize(static_cast<size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const double c = obj_[static_cast<size_t>(j)];
      const double lo = lower_[static_cast<size_t>(j)];
      const double up = upper_[static_cast<size_t>(j)];
      double v;
      if (c > 0.0) {
        v = up;
      } else if (c < 0.0) {
        v = lo;
      } else {
        v = lo > -kLpInfinity ? lo : up;
      }
      if (v >= kLpInfinity || v <= -kLpInfinity) {
        result.status = LpStatus::kUnbounded;
        result.values.clear();
        result.basis.status.clear();
        return result;
      }
      result.values[static_cast<size_t>(j)] = v;
      result.basis.status[static_cast<size_t>(j)] =
          v == up ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
      result.objective += c * v;
    }
    return result;
  }

  // Warm path: install the hint; if it lands primal feasible Phase 1 is
  // skipped outright, if it lands dual feasible the dual simplex re-optimizes
  // in a few pivots (the branch-and-bound child case). Anything else falls
  // through to a cold start — a warm start can change the pivot count, never
  // the answer.
  // A warm run that breaks down numerically (see Refactorize) also falls
  // through to the cold start.
  if (!options_->start_basis.empty() && TryWarmStart()) {
    stats_.warm_basis_used = true;
    if (PrimalFeasible()) {
      const LpStatus primal = RunPrimal(/*phase1=*/false);
      if (!broken_down_) {
        return Finish(primal);
      }
    } else {
      ComputeDuals(&y_);
      if (MakeDualFeasible(y_)) {
        RecomputeBasicValues();  // Bound flips moved nonbasic values.
        const LpStatus dual = RunDual();
        if (dual == LpStatus::kInfeasible) {
          result.status = LpStatus::kInfeasible;
          result.iterations = iterations_;
          result.stats = stats_;
          return result;
        }
        if (dual == LpStatus::kOptimal) {
          // Certify: dual pivots preserved dual feasibility, so this is
          // normally zero extra pivots.
          const LpStatus primal = RunPrimal(/*phase1=*/false);
          if (!broken_down_) {
            return Finish(primal);
          }
        }
        // Dual gave up (degeneracy/numerics): cold-start below.
      }
    }
    stats_.warm_basis_used = false;
  }

  ColdStart();
  if (num_artificials_ > 0) {
    // Phase 1: drive artificial infeasibility to zero (max -sum(artificials)).
    std::vector<double> real_obj = obj_;
    for (int j = 0; j < total_; ++j) {
      obj_[static_cast<size_t>(j)] = j >= n_ + m_ ? -1.0 : 0.0;
    }
    const LpStatus phase1 = RunPrimal(/*phase1=*/true);
    double infeasibility = 0.0;
    for (int j = n_ + m_; j < total_; ++j) {
      infeasibility += value_[static_cast<size_t>(j)];
    }
    if (phase1 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      result.stats = stats_;
      return result;
    }
    if (infeasibility > 1e-6) {
      result.status = LpStatus::kInfeasible;
      result.iterations = iterations_;
      result.stats = stats_;
      return result;
    }
    // Retire artificials: pin them to zero so Phase 2 cannot resurrect them.
    for (int j = n_ + m_; j < total_; ++j) {
      lower_[static_cast<size_t>(j)] = 0.0;
      upper_[static_cast<size_t>(j)] = 0.0;
      if (status_[static_cast<size_t>(j)] != BasisStatus::kBasic) {
        status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
        value_[static_cast<size_t>(j)] = 0.0;
      }
    }
    obj_ = real_obj;
    degenerate_streak_ = 0;
    cand_.clear();
  }
  return Finish(RunPrimal(/*phase1=*/false));
}

namespace {

void RecordLpCounters(const LpSolution& result) {
  // LP work counters. Node LPs run on solver worker threads too, so this uses
  // only striped registry adds — never spans (span rings are driver-thread
  // state; worker emission would make trace export thread-count-dependent).
  struct LpCounters {
    obs::Counter* solves;
    obs::Counter* pivots;
    obs::Counter* ftran;
    obs::Counter* btran;
    obs::Counter* refactorizations;
    obs::Counter* warm_basis_used;
    obs::Histogram* pivots_hist;
  };
  static const LpCounters* const counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto* c = new LpCounters();
    c->solves = reg.GetCounter("solver.lp_solves");
    c->pivots = reg.GetCounter("solver.lp_pivots");
    c->ftran = reg.GetCounter("solver.ftran");
    c->btran = reg.GetCounter("solver.btran");
    c->refactorizations = reg.GetCounter("solver.refactorizations");
    c->warm_basis_used = reg.GetCounter("solver.warm_basis_used");
    c->pivots_hist = reg.GetHistogram(
        "solver.lp_pivots_per_solve", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                                       256.0, 512.0, 1024.0});
    return c;
  }();
  counters->solves->Increment();
  counters->pivots->Add(result.iterations);
  counters->ftran->Add(result.stats.ftran);
  counters->btran->Add(result.stats.btran);
  counters->refactorizations->Add(result.stats.refactorizations);
  if (result.stats.warm_basis_used) {
    counters->warm_basis_used->Increment();
  }
  counters->pivots_hist->Observe(static_cast<double>(result.iterations));
}

}  // namespace

LpCore::LpCore(const LpModel& lp)
    : model(lp), num_rows(lp.num_rows()), num_variables(lp.num_variables()) {
  const int m = num_rows;
  const int n = num_variables;
  // CSC structural columns; scanning rows in order leaves each column's
  // entries in ascending row order.
  col_start.assign(static_cast<size_t>(n) + 1, 0);
  for (int r = 0; r < m; ++r) {
    for (const LpTerm& t : lp.row(r).terms) {
      ++col_start[static_cast<size_t>(t.var) + 1];
    }
  }
  for (int j = 0; j < n; ++j) {
    col_start[static_cast<size_t>(j) + 1] += col_start[static_cast<size_t>(j)];
  }
  col_row.resize(static_cast<size_t>(col_start[static_cast<size_t>(n)]));
  col_value.resize(col_row.size());
  {
    std::vector<int> fill(col_start.begin(), col_start.end() - 1);
    for (int r = 0; r < m; ++r) {
      for (const LpTerm& t : lp.row(r).terms) {
        const int k = fill[static_cast<size_t>(t.var)]++;
        col_row[static_cast<size_t>(k)] = r;
        col_value[static_cast<size_t>(k)] = t.coeff;
      }
    }
  }

  row_start.reserve(static_cast<size_t>(m) + 1);
  row_start.push_back(0);
  row_col.reserve(col_row.size());
  row_value.reserve(col_row.size());
  rhs.resize(static_cast<size_t>(m));
  for (int r = 0; r < m; ++r) {
    for (const LpTerm& t : lp.row(r).terms) {
      row_col.push_back(t.var);
      row_value.push_back(t.coeff);
    }
    row_start.push_back(static_cast<int>(row_col.size()));
    rhs[static_cast<size_t>(r)] = lp.row(r).rhs;
  }

  lower.reserve(static_cast<size_t>(n + m));
  upper.reserve(static_cast<size_t>(n + m));
  objective.reserve(static_cast<size_t>(n + m));
  for (int j = 0; j < n; ++j) {
    TS_CHECK_MSG(lp.lower(j) > -kLpInfinity || lp.upper(j) < kLpInfinity,
                 "variable " << j << " must have a finite bound");
    lower.push_back(lp.lower(j));
    upper.push_back(lp.upper(j));
    objective.push_back(lp.objective(j));
  }
  // Slack variables: row sense becomes a bound on the slack.
  for (int r = 0; r < m; ++r) {
    const RowSense sense = lp.row(r).sense;
    lower.push_back(sense == RowSense::kGreaterEqual ? -kLpInfinity : 0.0);
    upper.push_back(sense == RowSense::kLessEqual ? kLpInfinity : 0.0);
    objective.push_back(0.0);
  }
}

LpWorkspace::LpWorkspace() : solver_(std::make_unique<SimplexSolver>()) {}
LpWorkspace::~LpWorkspace() = default;

LpSolution LpWorkspace::Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                              const SimplexOptions& options) {
  LpSolution result = [&]() -> LpSolution {
    if (!options.presolve) {
      return solver_->Solve(core, fixes, options);
    }
    const size_t n = static_cast<size_t>(core.num_variables);
    lower_.assign(core.lower.begin(), core.lower.begin() + static_cast<std::ptrdiff_t>(n));
    upper_.assign(core.upper.begin(), core.upper.begin() + static_cast<std::ptrdiff_t>(n));
    for (const BoundFix& fix : fixes) {
      lower_[static_cast<size_t>(fix.var)] = fix.lower;
      upper_[static_cast<size_t>(fix.var)] = fix.upper;
    }
    const PresolveResult pre = Presolve(core.model, lower_, upper_);
    if (pre.proven_infeasible) {
      LpSolution infeasible;
      infeasible.status = LpStatus::kInfeasible;
      return infeasible;
    }
    if (pre.proven_unbounded) {
      // A row-free variable with an unbounded preferred direction: the model
      // is unbounded iff the rest is feasible — let the full simplex decide.
      return solver_->Solve(core, fixes, options);
    }
    SimplexOptions reduced_options = options;
    reduced_options.presolve = false;
    // A start basis rides through the reductions (statuses of surviving
    // variables and rows); the simplex repairs whatever the eliminations
    // knocked out of the basic set.
    if (!options.start_basis.empty()) {
      reduced_options.start_basis = pre.MapBasisToReduced(
          options.start_basis, core.num_variables, core.num_rows);
    }
    const LpCore reduced_core(pre.reduced);
    LpSolution reduced = solver_->Solve(reduced_core, {}, reduced_options);
    if (reduced.status == LpStatus::kOptimal ||
        reduced.status == LpStatus::kIterationLimit) {
      reduced.values = pre.ExpandSolution(reduced.values);
      reduced.objective = core.model.ObjectiveValue(reduced.values);
      reduced.basis = pre.MapBasisToFull(reduced.basis, core.num_variables, core.num_rows);
    }
    return reduced;
  }();
  RecordLpCounters(result);
  return result;
}

LpSolution SolveLp(const LpModel& model, const SimplexOptions& options) {
  const LpCore core(model);
  LpWorkspace workspace;
  return workspace.Solve(core, {}, options);
}

}  // namespace threesigma
