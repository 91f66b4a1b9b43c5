#include "src/solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "src/common/check.h"

namespace threesigma {
namespace {

constexpr double kPivotTol = 1e-9;
// Reduced-cost optimality tolerance.
constexpr double kOptimalityTol = 1e-7;
// Bound/feasibility tolerance.
constexpr double kFeasibilityTol = 1e-7;
// Pivots between eta-file reinversions. Each pivot appends one eta, so this
// bounds both FTRAN/BTRAN cost growth and numerical drift of the
// incrementally-updated basic values (reinversion recomputes them exactly).
constexpr int kRefactorInterval = 64;
// A dual pivot element smaller than this leaves the carried reduced costs
// unreliable (the update's error grows as 1/|pivot|), so the dual simplex
// recomputes them exactly after it. Scheduler models rarely pivot this small.
constexpr double kCarryPivotTol = 1e-6;
// Consecutive failed reinversions after which a run counts as broken down
// (see Refactorize). Transient failure streaks on scheduler models were at
// most 10 long over about 700 benchmark instances; a singular basis never
// recovers.
constexpr int kMaxFailedReinversions = 32;

}  // namespace

// Product-form basis inverse: B⁻¹ = T_K … T_1 where each eta T applies
//   x[p] /= pivot_value;  x[i] -= v_i * x[p]  (off-pivot entries v_i).
struct EtaFile {
  struct Eta {
    int pivot_row;
    double pivot_value;
    int begin, end;  // Off-pivot entries in `rows`/`vals`.
  };
  std::vector<Eta> etas;
  std::vector<int> rows;
  std::vector<double> vals;

  void clear() {
    etas.clear();
    rows.clear();
    vals.clear();
  }
};

struct FactoredStart {
  std::vector<int> basis;           // Row -> basic variable.
  std::vector<BasisStatus> status;  // Structural + slack variables.
  EtaFile eta;
  std::vector<double> reduced;  // Exact reduced costs, structural + slack.
  // The parent's reinversion cadence, continued by the child.
  int pivots_since_refactor;
  int failed_reinversions;
};

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
  // Installs a parent's exported state under this core and `fixes`, then
  // re-optimizes with the dual simplex (see LpWorkspace::SolveFrom).
  LpSolution SolveFrom(const LpCore& core, const std::vector<BoundFix>& fixes,
                       const FactoredStart& start);
  // The last solve's end state, or null (see LpWorkspace::ExportStart).
  std::shared_ptr<const FactoredStart> Export();

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
  // Installs an exported parent state: basis, statuses, eta file and reduced
  // costs as they were, nonbasic values on this node's bounds, basic values
  // recomputed. No reinversion.
  void InstallFactored(const FactoredStart& start);

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
  // Primal simplex on the current (phase-dependent) objective. On kOptimal,
  // reduced_ holds the exact reduced costs of the final basis (its last,
  // empty, full pricing scan computed them).
  LpStatus RunPrimal(bool phase1);
  // Bounded-variable dual simplex from a dual-feasible basis whose exact
  // reduced costs are in reduced_; it carries them from pivot to pivot.
  // Returns kOptimal when primal feasibility is restored, kInfeasible when a
  // violated row admits no entering column (proven empty), kIterationLimit
  // when it gives up (caller falls back to a cold start; never changes the
  // answer).
  LpStatus RunDual();
  // RunDual, then a certifying primal pass (normally zero pivots; it also
  // repairs any drift of the carried reduced costs). Empty when the dual run
  // gave up or the run broke down, and the caller cold-starts.
  std::optional<LpSolution> DualThenCertify();

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
  // -1 for a movable nonbasic variable at its lower bound, +1 at its upper,
  // 0 for a basic or fixed one. direction * d_j is the variable's dual
  // headroom, nonnegative while the basis is dual feasible.
  double DualDirection(int j) const;
  // Full scans (pricing, dual simplex): fills reduced_ for every variable at
  // once, the structural columns row-wise over the nonzeros of y.
  void ComputeReducedCosts(const std::vector<double>& y);
  // Fresh duals into y_ (one BTRAN), then ComputeReducedCosts(y_).
  void RefreshReducedCosts();
  void ComputeDuals(std::vector<double>* y);
  bool PrimalFeasible() const;
  // Refreshes reduced_; true when no movable nonbasic variable's reduced
  // cost has the wrong sign for the bound it rests at.
  bool DualFeasible();
  // Shifted-bound start for a warm basis that is neither primal nor dual
  // feasible: widens every violated basic bound to the variable's current
  // value, runs primal Phase 2 on the shifted problem, then restores the
  // bounds. The basis is then dual feasible and the dual simplex finishes.
  // False when the shifted run did not reach an optimum (the caller then
  // cold-starts).
  bool ShiftedPrimal();
  void ParkNonbasic(int j, BasisStatus preferred);
  // Cold start, Phase 1 when artificials were needed, then Phase 2.
  LpSolution SolveCold();
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

  EtaFile eta_;
  // The eta file a strict reinversion backs out to (see FactorFromSet).
  EtaFile saved_eta_;

  // Reduced costs over the extended variables: filled by full scans, and
  // carried pivot to pivot by the dual simplex (see RunDual).
  std::vector<double> reduced_;
  // Scratch, sized in Bind.
  std::vector<double> y_, alpha_, rho_, work_;
  std::vector<char> row_pivoted_, used_;
  std::vector<int> new_basis_, demoted_;
  // Dual simplex scratch (see RunDual): the pivot row over every variable
  // (all zero between pivots); each variable's DualDirection; the eligible
  // columns of a pivot.
  std::vector<double> row_alpha_;
  std::vector<double> direction_;
  std::vector<int> eligible_cols_;
  // Shifted-bound start scratch: each shifted variable and its true bounds.
  struct ShiftedBound {
    int j;
    double lower, upper;
  };
  std::vector<ShiftedBound> shifted_;
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
  bool exportable_ = false;      // See Export.
};

double SimplexSolver::ReducedCost(int j, const std::vector<double>& y) const {
  double d = obj_[j];
  ForEachColumnEntry(j, [&](int r, double v) { d -= y[r] * v; });
  return d;
}

double SimplexSolver::DualDirection(int j) const {
  if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
      lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
    return 0.0;
  }
  return status_[static_cast<size_t>(j)] == BasisStatus::kAtLower ? -1.0 : 1.0;
}

void SimplexSolver::ComputeReducedCosts(const std::vector<double>& y) {
  // Row-wise over the nonzeros of y in ascending row order: each column
  // receives its terms in the order ReducedCost subtracts them, and a skipped
  // y_r = 0 term could only flip the sign of a zero result, which no
  // tolerance test or magnitude can tell apart.
  reduced_.resize(static_cast<size_t>(total_));
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
  for (int j = n_; j < total_; ++j) {
    reduced_[static_cast<size_t>(j)] = ReducedCost(j, y);
  }
}

void SimplexSolver::RefreshReducedCosts() {
  ComputeDuals(&y_);
  ComputeReducedCosts(y_);
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
  eta_.clear();
  cand_.clear();
  stats_ = LpStats{};
  failed_reinversions_ = 0;
  broken_down_ = false;
  exportable_ = false;
  iterations_ = 0;
  degenerate_streak_ = 0;
  pivots_since_refactor_ = 0;
  max_iterations_ = options.max_iterations > 0 ? options.max_iterations
                                               : 200 * (n_ + 2 * m_) + 2000;
  y_.assign(static_cast<size_t>(m_), 0.0);
  alpha_.assign(static_cast<size_t>(m_), 0.0);
  rho_.assign(static_cast<size_t>(m_), 0.0);
  work_.assign(static_cast<size_t>(m_), 0.0);
}

void SimplexSolver::Ftran(std::vector<double>* x) {
  ++stats_.ftran;
  for (const EtaFile::Eta& e : eta_.etas) {
    double t = (*x)[static_cast<size_t>(e.pivot_row)];
    if (t == 0.0) {
      continue;  // Sparse skip: untouched pivot rows cost nothing.
    }
    t /= e.pivot_value;
    (*x)[static_cast<size_t>(e.pivot_row)] = t;
    for (int k = e.begin; k < e.end; ++k) {
      (*x)[static_cast<size_t>(eta_.rows[static_cast<size_t>(k)])] -=
          eta_.vals[static_cast<size_t>(k)] * t;
    }
  }
}

void SimplexSolver::Btran(std::vector<double>* y) {
  ++stats_.btran;
  for (auto it = eta_.etas.rbegin(); it != eta_.etas.rend(); ++it) {
    double acc = (*y)[static_cast<size_t>(it->pivot_row)];
    for (int k = it->begin; k < it->end; ++k) {
      acc -= eta_.vals[static_cast<size_t>(k)] *
             (*y)[static_cast<size_t>(eta_.rows[static_cast<size_t>(k)])];
    }
    (*y)[static_cast<size_t>(it->pivot_row)] = acc / it->pivot_value;
  }
}

void SimplexSolver::AppendEta(const std::vector<double>& column, int pivot_row) {
  EtaFile::Eta e;
  e.pivot_row = pivot_row;
  e.pivot_value = column[static_cast<size_t>(pivot_row)];
  e.begin = static_cast<int>(eta_.rows.size());
  for (int r = 0; r < m_; ++r) {
    const double v = column[static_cast<size_t>(r)];
    if (r != pivot_row && v != 0.0) {
      eta_.rows.push_back(r);
      eta_.vals.push_back(v);
    }
  }
  e.end = static_cast<int>(eta_.rows.size());
  // A unit column pivoting on 1 (a slack, typically) gives the identity eta:
  // x / 1.0 == x exactly, so FTRAN and BTRAN would pass over it without
  // changing a bit. It is not stored.
  if (e.pivot_value == 1.0 && e.end == e.begin) {
    return;
  }
  eta_.etas.push_back(e);
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
    std::swap(saved_eta_, eta_);
  }
  const auto restore = [&]() { std::swap(eta_, saved_eta_); };
  eta_.clear();
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
  eta_.clear();
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
    if (v < lower_[static_cast<size_t>(bv)] - kFeasibilityTol ||
        v > upper_[static_cast<size_t>(bv)] + kFeasibilityTol) {
      return false;
    }
  }
  return true;
}

bool SimplexSolver::DualFeasible() {
  RefreshReducedCosts();
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;
    }
    const double d = reduced_[static_cast<size_t>(j)];
    if ((status_[static_cast<size_t>(j)] == BasisStatus::kAtLower && d > kOptimalityTol) ||
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper && d < -kOptimalityTol)) {
      return false;
    }
  }
  return true;
}

bool SimplexSolver::ShiftedPrimal() {
  shifted_.clear();
  for (int r = 0; r < m_; ++r) {
    const int bv = basis_[static_cast<size_t>(r)];
    const double v = value_[static_cast<size_t>(bv)];
    double& lo = lower_[static_cast<size_t>(bv)];
    double& up = upper_[static_cast<size_t>(bv)];
    if (v < lo - kFeasibilityTol || v > up + kFeasibilityTol) {
      shifted_.push_back(ShiftedBound{bv, lo, up});
      (v < lo ? lo : up) = v;
    }
  }
  stats_.shifted_bounds = static_cast<int>(shifted_.size());
  const LpStatus shifted = RunPrimal(/*phase1=*/false);
  // Restore the true bounds. A shifted variable that left the basis rests at
  // its bound symbolically, so it snaps back onto the true one; reduced costs
  // do not depend on bounds, so the optimal basis stays dual feasible.
  for (const ShiftedBound& b : shifted_) {
    lower_[static_cast<size_t>(b.j)] = b.lower;
    upper_[static_cast<size_t>(b.j)] = b.upper;
    if (status_[static_cast<size_t>(b.j)] != BasisStatus::kBasic) {
      ParkNonbasic(b.j, status_[static_cast<size_t>(b.j)]);
    }
  }
  return shifted == LpStatus::kOptimal && !broken_down_;
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
    if (res >= lower_[static_cast<size_t>(sv)] - kFeasibilityTol &&
        res <= upper_[static_cast<size_t>(sv)] + kFeasibilityTol) {
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
      // which is how a basis stays meaningful after the bounds move.
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

void SimplexSolver::InstallFactored(const FactoredStart& start) {
  TS_CHECK_EQ(static_cast<int>(start.status.size()), n_ + m_);
  total_ = n_ + m_;
  num_artificials_ = 0;
  basis_ = start.basis;
  status_ = start.status;
  eta_ = start.eta;
  reduced_ = start.reduced;
  pivots_since_refactor_ = start.pivots_since_refactor;
  failed_reinversions_ = start.failed_reinversions;
  value_.assign(static_cast<size_t>(total_), 0.0);
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] != BasisStatus::kBasic) {
      // Branching only tightens finite bounds, so the status survives.
      ParkNonbasic(j, status_[static_cast<size_t>(j)]);
    }
  }
  RecomputeBasicValues();
  cand_.clear();
  degenerate_streak_ = 0;
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

void SimplexSolver::RebuildCandidates(const std::vector<double>& y) {
  ComputeReducedCosts(y);
  std::vector<Scored>& scored = scored_;
  scored.clear();
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;
    }
    const double d = reduced_[static_cast<size_t>(j)];
    const bool favorable =
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower && d > kOptimalityTol) ||
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper && d < -kOptimalityTol);
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
  double best = kOptimalityTol;
  size_t keep = 0;
  for (const int j : cand_) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;  // Entered the basis or got fixed; drop from the list.
    }
    const double d = ReducedCost(j, y);
    int dj = 0;
    if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower && d > kOptimalityTol) {
      dj = +1;
    } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper && d < -kOptimalityTol) {
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
        if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower && d > kOptimalityTol) {
          entering = j;
          direction = +1;
        } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
                   d < -kOptimalityTol) {
          entering = j;
          direction = -1;
        }
      }
    } else {
      entering = PickEntering(y_, &direction);
    }
    if (entering < 0) {
      if (bland) {
        ComputeReducedCosts(y_);  // PickEntering's last full scan did this.
      }
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
  TS_CHECK_EQ(num_artificials_, 0);  // Warm paths only: the sweeps cover n + m.
  const int max_dual = 3 * m_ + 200;
  int dual_pivots = 0;
  const int n = n_;
  const int total = total_;
  // Zero between pivots (pass 3 clears it), though a run that returned
  // mid-pivot left it dirty.
  row_alpha_.assign(static_cast<size_t>(total), 0.0);
  eligible_cols_.resize(static_cast<size_t>(total));
  // Bounds do not move during the run, so only the two variables of each
  // pivot change their direction.
  direction_.resize(static_cast<size_t>(total));
  for (int j = 0; j < total; ++j) {
    direction_[static_cast<size_t>(j)] = DualDirection(j);
  }
  double* alpha_row = row_alpha_.data();
  const double* direction = direction_.data();
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
    double viol = kFeasibilityTol;
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

    // Pivot row alpha_r = rho A, formed row-wise over the nonzeros of rho in
    // ascending row order: each structural entry sums its terms in the order
    // of a column dot product, so it equals one bit for bit (up to the sign
    // of a zero). A slack's entry is its row's rho.
    for (int r = 0; r < m_; ++r) {
      const double rr = rho_[static_cast<size_t>(r)];
      alpha_row[n + r] = rr;
      if (rr == 0.0) {
        continue;
      }
      for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        alpha_row[row_col_[k]] += rr * row_val_[k];
      }
    }
    // Pass 1, ascending index, without branches: every variable is written
    // to the scratch list, and the cursor advances only for an eligible one,
    // a movable column whose entry has the sign that moves the violated
    // variable toward its bound while moving the column off its own
    // (x_basic changes by -alpha_r * dx_j). With the direction, that sign
    // test is one product; a basic or fixed column's direction is 0.
    const double toward = below ? 1.0 : -1.0;
    int* eligible = eligible_cols_.data();
    size_t num_eligible = 0;
    for (int j = 0; j < total; ++j) {
      eligible[num_eligible] = j;
      num_eligible += (alpha_row[j] * direction[j]) * toward > kPivotTol ? 1 : 0;
    }
    // Pass 2, the dual ratio test over the eligible columns: enter the one
    // whose reduced cost hits zero first (smallest |d|/|alpha_r|); ties go to
    // the larger pivot magnitude, then the smaller index.
    int entering = -1;
    double entering_arj = 0.0;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_mag = 0.0;
    double* const reduced = reduced_.data();
    for (size_t i = 0; i < num_eligible; ++i) {
      const int j = eligible[i];
      const double arj = alpha_row[j];
      // Dual headroom: how far d_j may move before it changes sign.
      const double slack = std::max(0.0, direction[j] * reduced[j]);
      const double ratio = slack / std::fabs(arj);
      const bool wins =
          ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           (entering < 0 || std::fabs(arj) > best_mag + 1e-12 ||
            (std::fabs(arj) > best_mag - 1e-12 && j < entering)));
      if (wins) {
        entering = j;
        entering_arj = arj;
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

    // Pass 3: carry the reduced costs across the pivot by the pivot row,
    // d_j -= theta * alpha_rj, over every variable in one branch-free sweep
    // that also clears the accumulator. A basic column's entry is zero up to
    // roundoff, and a basic variable's reduced cost is not read until it
    // leaves. The entering column's becomes zero and the leaving variable's
    // (its pivot-row entry is 1) becomes -theta.
    const int leaving = basis_[static_cast<size_t>(lrow)];
    const double theta = reduced[entering] / entering_arj;
    for (int j = 0; j < total; ++j) {
      reduced[j] -= theta * alpha_row[j];
      alpha_row[j] = 0.0;
    }
    reduced[entering] = 0.0;
    reduced[leaving] = -theta;

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
    direction_[static_cast<size_t>(entering)] = 0.0;
    direction_[static_cast<size_t>(leaving)] = DualDirection(leaving);
    AppendEta(alpha_, lrow);
    if (++pivots_since_refactor_ >= kRefactorInterval) {
      if (!Refactorize()) {
        broken_down_ = true;
        return LpStatus::kIterationLimit;
      }
      RefreshReducedCosts();  // Squash the carried drift with the values'.
    } else if (std::fabs(are) < kCarryPivotTol) {
      RefreshReducedCosts();
    }
  }
}

std::optional<LpSolution> SimplexSolver::DualThenCertify() {
  const LpStatus dual = RunDual();
  if (dual == LpStatus::kInfeasible) {
    return Finish(LpStatus::kInfeasible);
  }
  if (dual == LpStatus::kOptimal) {
    // Certify: dual pivots preserved dual feasibility, so this is normally
    // zero extra pivots.
    const LpStatus primal = RunPrimal(/*phase1=*/false);
    if (!broken_down_) {
      return Finish(primal);
    }
  }
  return std::nullopt;  // Dual gave up (degeneracy/numerics): cold-start.
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
    result.objective = core_->ObjectiveValue(result.values);
    result.basis.status.resize(static_cast<size_t>(n_ + m_));
    for (int j = 0; j < n_ + m_; ++j) {
      result.basis.status[static_cast<size_t>(j)] = status_[static_cast<size_t>(j)];
    }
  }
  exportable_ = status == LpStatus::kOptimal && !broken_down_;
  result.stats = stats_;
  return result;
}

std::shared_ptr<const FactoredStart> SimplexSolver::Export() {
  if (!exportable_) {
    return nullptr;
  }
  for (const int bv : basis_) {
    if (bv >= n_ + m_) {
      return nullptr;  // A Phase-1 artificial stayed basic (at zero).
    }
  }
  // Finish follows a RunPrimal that returned kOptimal, so reduced_ is exact.
  auto start = std::make_shared<FactoredStart>();
  start->basis = basis_;
  start->status.assign(status_.begin(), status_.begin() + n_ + m_);
  start->eta = eta_;
  start->reduced.assign(reduced_.begin(), reduced_.begin() + n_ + m_);
  start->pivots_since_refactor = pivots_since_refactor_;
  start->failed_reinversions = failed_reinversions_;
  return start;
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

  // Warm path: install the hint and pick the start by what the basis is.
  //   - primal feasible: Phase 2 from it, Phase 1 skipped outright;
  //   - dual feasible: the dual simplex re-optimizes in a few pivots;
  //   - neither (a previous cycle's basis mapped onto a changed model):
  //     ShiftedPrimal makes it dual feasible and the dual simplex finishes.
  // A warm run that gives up or breaks down numerically (see Refactorize)
  // falls through to the cold start, so a warm start can change the pivot
  // count, never the answer.
  if (!options_->start_basis.empty() && TryWarmStart()) {
    stats_.warm_basis_used = true;
    if (PrimalFeasible()) {
      const LpStatus primal = RunPrimal(/*phase1=*/false);
      if (!broken_down_) {
        return Finish(primal);
      }
    } else {
      // Either way reduced_ is exact for RunDual: DualFeasible computes it,
      // and so does the shifted run's optimal primal pass (reduced costs do
      // not depend on the bounds it then restores).
      if (DualFeasible() || ShiftedPrimal()) {
        RecomputeBasicValues();  // Restored bounds moved nonbasic values.
        if (std::optional<LpSolution> done = DualThenCertify()) {
          return std::move(*done);
        }
      }
    }
    stats_.warm_basis_used = false;
  }
  return SolveCold();
}

LpSolution SimplexSolver::SolveFrom(const LpCore& core, const std::vector<BoundFix>& fixes,
                                    const FactoredStart& start) {
  static const SimplexOptions kDefaults;
  Bind(core, fixes, kDefaults);
  InstallFactored(start);
  stats_.warm_basis_used = true;
  if (std::optional<LpSolution> done = DualThenCertify()) {
    return std::move(*done);
  }
  stats_.warm_basis_used = false;
  return SolveCold();
}

LpSolution SimplexSolver::SolveCold() {
  LpSolution result;
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

LpCore::LpCore(const LpModel& lp) {
  // Each column's (row, value) entries, gathered by scanning the rows in
  // order, which leaves them in ascending row order.
  std::vector<std::vector<std::pair<int, double>>> columns(
      static_cast<size_t>(lp.num_variables()));
  LpCoreBuilder builder;
  for (int r = 0; r < lp.num_rows(); ++r) {
    builder.NewRow(lp.row(r).sense, lp.row(r).rhs);
    for (const LpTerm& t : lp.row(r).terms) {
      columns[static_cast<size_t>(t.var)].emplace_back(r, t.coeff);
    }
  }
  for (int j = 0; j < lp.num_variables(); ++j) {
    builder.NewColumn(lp.lower(j), lp.upper(j), lp.objective(j));
    for (const auto& [row, value] : columns[static_cast<size_t>(j)]) {
      builder.AddEntry(row, value);
    }
  }
  *this = builder.Build();
}

RowSense LpCore::row_sense(int r) const {
  const size_t slack = static_cast<size_t>(num_variables + r);
  if (upper[slack] >= kLpInfinity) {
    return RowSense::kLessEqual;
  }
  return lower[slack] <= -kLpInfinity ? RowSense::kGreaterEqual : RowSense::kEqual;
}

void LpCore::RowActivities(const std::vector<double>& x, std::vector<double>* activity) const {
  activity->assign(static_cast<size_t>(num_rows), 0.0);
  for (int j = 0; j < num_variables; ++j) {
    const double xj = x[static_cast<size_t>(j)];
    if (xj == 0.0) {
      continue;
    }
    for (int k = col_start[static_cast<size_t>(j)]; k < col_start[static_cast<size_t>(j) + 1];
         ++k) {
      (*activity)[static_cast<size_t>(col_row[static_cast<size_t>(k)])] +=
          col_value[static_cast<size_t>(k)] * xj;
    }
  }
}

double LpCore::ObjectiveValue(const std::vector<double>& x) const {
  TS_CHECK_EQ(static_cast<int>(x.size()), num_variables);
  double total = 0.0;
  for (int j = 0; j < num_variables; ++j) {
    total += objective[static_cast<size_t>(j)] * x[static_cast<size_t>(j)];
  }
  return total;
}

bool LpCore::IsFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables) {
    return false;
  }
  for (int j = 0; j < num_variables; ++j) {
    const size_t i = static_cast<size_t>(j);
    if (x[i] < lower[i] - tol || x[i] > upper[i] + tol) {
      return false;
    }
  }
  std::vector<double> activity;
  RowActivities(x, &activity);
  for (int r = 0; r < num_rows; ++r) {
    if (!RowSatisfied(row_sense(r), activity[static_cast<size_t>(r)], rhs[static_cast<size_t>(r)],
                      tol)) {
      return false;
    }
  }
  return true;
}

int LpCoreBuilder::NewRow(RowSense sense, double rhs) {
  sense_.push_back(sense);
  core_.rhs.push_back(rhs);
  return core_.num_rows++;
}

int LpCoreBuilder::NewColumn(double lower, double upper, double objective) {
  TS_CHECK_LE(lower, upper);
  TS_CHECK_MSG(lower > -kLpInfinity || upper < kLpInfinity,
               "variable " << core_.num_variables << " must have a finite bound");
  core_.lower.push_back(lower);
  core_.upper.push_back(upper);
  core_.objective.push_back(objective);
  core_.col_start.push_back(core_.col_start.back());
  return core_.num_variables++;
}

void LpCoreBuilder::AddEntry(int row, double value) {
  TS_CHECK_GT(core_.num_variables, 0);
  TS_CHECK_GE(row, 0);
  TS_CHECK_LT(row, core_.num_rows);
  const int begin = core_.col_start[core_.col_start.size() - 2];
  TS_CHECK_MSG(core_.col_start.back() == begin || core_.col_row.back() < row,
               "column " << core_.num_variables - 1 << " rows must ascend");
  if (value == 0.0) {
    return;
  }
  core_.col_row.push_back(row);
  core_.col_value.push_back(value);
  ++core_.col_start.back();
}

LpCore LpCoreBuilder::Build() {
  LpCore& core = core_;
  const int m = core.num_rows;
  const int n = core.num_variables;
  // CSR as the CSC's transpose: scanning the columns in order leaves each
  // row's entries in ascending column order.
  core.row_start.assign(static_cast<size_t>(m) + 1, 0);
  for (const int r : core.col_row) {
    ++core.row_start[static_cast<size_t>(r) + 1];
  }
  for (int r = 0; r < m; ++r) {
    core.row_start[static_cast<size_t>(r) + 1] += core.row_start[static_cast<size_t>(r)];
  }
  core.row_col.resize(core.col_row.size());
  core.row_value.resize(core.col_row.size());
  std::vector<int> fill(core.row_start.begin(), core.row_start.end() - 1);
  for (int j = 0; j < n; ++j) {
    for (int k = core.col_start[static_cast<size_t>(j)];
         k < core.col_start[static_cast<size_t>(j) + 1]; ++k) {
      const int at = fill[static_cast<size_t>(core.col_row[static_cast<size_t>(k)])]++;
      core.row_col[static_cast<size_t>(at)] = j;
      core.row_value[static_cast<size_t>(at)] = core.col_value[static_cast<size_t>(k)];
    }
  }
  // Slack variables: row sense becomes a bound on the slack.
  for (const RowSense sense : sense_) {
    core.lower.push_back(sense == RowSense::kGreaterEqual ? -kLpInfinity : 0.0);
    core.upper.push_back(sense == RowSense::kLessEqual ? kLpInfinity : 0.0);
    core.objective.push_back(0.0);
  }
  sense_.clear();
  return std::exchange(core_, LpCore());
}

LpWorkspace::LpWorkspace() : solver_(std::make_unique<SimplexSolver>()) {}
LpWorkspace::~LpWorkspace() = default;

LpSolution LpWorkspace::Solve(const LpCore& core, const std::vector<BoundFix>& fixes,
                              const SimplexOptions& options) {
  return solver_->Solve(core, fixes, options);
}

LpSolution LpWorkspace::SolveFrom(const LpCore& core, const std::vector<BoundFix>& fixes,
                                  const FactoredStart& start) {
  return solver_->SolveFrom(core, fixes, start);
}

std::shared_ptr<const FactoredStart> LpWorkspace::ExportStart() { return solver_->Export(); }

LpSolution SolveLp(const LpCore& core, const SimplexOptions& options) {
  LpWorkspace workspace;
  return workspace.Solve(core, {}, options);
}

LpSolution SolveLp(const LpModel& model, const SimplexOptions& options) {
  return SolveLp(LpCore(model), options);
}

}  // namespace threesigma
