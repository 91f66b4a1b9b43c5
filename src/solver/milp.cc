#include "src/solver/milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace {

// Nodes popped per wave. Part of the deterministic schedule: the result
// depends on this value, since the incumbent bound the wave's prune reads is
// taken only at wave start. Changing it moves node counts and goldens.
constexpr int kBatchWidth = 16;
// Integrality tolerance.
constexpr double kIntegralityTol = 1e-6;

struct Node {
  // Tree path: '0' for the floor child, '1' for the ceil child. Lexicographic
  // order on ids is the deterministic tie-break between equal-objective
  // incumbents; '~' (warm start) and a trailing 'r' (greedy rounding) sort
  // after real tree ids so exact tree solutions take precedence.
  std::string id;
  std::vector<BoundFix> fixes;  // Branching decisions, full path from the root.
  double parent_bound;          // LP bound of the parent (pruning hint).
  // The parent's live end state (shared between siblings): its factored
  // optimal basis and exact reduced costs. The child differs from the parent
  // by one bound, so the basis stays dual feasible and the child runs the
  // dual simplex straight from it, with no reinversion. Null at the root,
  // which starts from MilpOptions::root_basis, and under a parent that could
  // not export (an artificial stayed basic): that child cold-starts.
  std::shared_ptr<const FactoredStart> start;
};

bool IsIntegral(double v, double tol) { return std::fabs(v - std::round(v)) <= tol; }

}  // namespace

MilpSolver::MilpSolver(LpCore core, std::vector<int> integer_vars)
    : core_(std::move(core)), integer_vars_(std::move(integer_vars)) {
  for (int v : integer_vars_) {
    TS_CHECK_GE(v, 0);
    TS_CHECK_LT(v, core_.num_variables);
  }
  for (int r = 0; r < core_.num_rows; ++r) {
    all_rows_le_ = all_rows_le_ && core_.row_sense(r) == RowSense::kLessEqual;
  }
}

bool MilpSolver::GreedyRound(const std::vector<double>& relaxed, std::vector<double>* out) {
  // Greedy only supports the scheduler's row shapes (all <=); bail otherwise
  // and let branch-and-bound find incumbents on its own.
  if (!all_rows_le_) {
    return false;
  }
  std::vector<double> x = relaxed;
  // Pull every integer variable down to its floor first (feasible for pure
  // <=-rows with non-negative coefficients, and a safe starting point
  // otherwise — final feasibility is re-checked at the end). Only variables
  // with room to rise and a non-negative objective are candidates.
  std::vector<RoundCandidate>& order = round_order_;
  order.clear();
  for (int v : integer_vars_) {
    const double floor_v = std::floor(relaxed[v] + 1e-9);
    x[v] = floor_v;
    const double target = std::min(std::ceil(relaxed[v] - 1e-9), core_.upper[v]);
    if (target - floor_v > 0.0 && core_.objective[v] >= 0.0) {
      order.push_back(RoundCandidate{relaxed[v] - floor_v, core_.objective[v], v, target});
    }
  }
  // Row activities for the floored point.
  std::vector<double>& activity = round_activity_;
  core_.RowActivities(x, &activity);
  // Try raising the candidates toward their relaxed value, most-fractional
  // and highest-objective first; the index makes the order total, so it does
  // not depend on which variables were filtered out.
  std::sort(order.begin(), order.end(), [](const RoundCandidate& a, const RoundCandidate& b) {
    if (a.frac != b.frac) {
      return a.frac > b.frac;
    }
    if (a.objective != b.objective) {
      return a.objective > b.objective;
    }
    return a.var < b.var;
  });
  for (const RoundCandidate& c : order) {
    const int v = c.var;
    const double delta = c.target - x[v];
    if (delta <= 0.0) {
      continue;  // A repeated entry of integer_vars_, already raised.
    }
    const int begin = core_.col_start[static_cast<size_t>(v)];
    const int end = core_.col_start[static_cast<size_t>(v) + 1];
    bool fits = true;
    for (int k = begin; k < end; ++k) {
      const size_t r = static_cast<size_t>(core_.col_row[static_cast<size_t>(k)]);
      if (activity[r] + core_.col_value[static_cast<size_t>(k)] * delta > core_.rhs[r] + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      continue;
    }
    x[v] = c.target;
    for (int k = begin; k < end; ++k) {
      activity[static_cast<size_t>(core_.col_row[static_cast<size_t>(k)])] +=
          core_.col_value[static_cast<size_t>(k)] * delta;
    }
  }
  if (!core_.IsFeasible(x)) {
    return false;
  }
  *out = std::move(x);
  return true;
}

bool MilpSolver::HasFractional(const std::vector<double>& values) const {
  return std::any_of(integer_vars_.begin(), integer_vars_.end(),
                     [&](int v) { return !IsIntegral(values[v], kIntegralityTol); });
}

MilpSolution MilpSolver::Solve(const MilpOptions& options) {
  // Phase::kOther: this span nests inside the scheduler's kSolve scope, and
  // tagging it with a profiler phase would double-count the solve time.
  TS_OBS_SPAN("solver.milp", obs::Phase::kOther);
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();
  const auto out_of_time = [&]() {
    if (options.time_limit_seconds <= 0.0) {
      return false;
    }
    const std::chrono::duration<double> elapsed = Clock::now() - start_time;
    return elapsed.count() >= options.time_limit_seconds;
  };

  MilpSolution result;

  // The simplex state every node LP runs in: on the shared core_, with its
  // branching decisions as a bound overlay.
  LpWorkspace workspace;

  // Install the warm start as the initial incumbent if it is valid.
  bool have_incumbent = false;
  std::vector<double> best;
  double best_obj = 0.0;
  std::string best_id = "~";  // Sorts after every tree id.
  if (!options.warm_start.empty() &&
      static_cast<int>(options.warm_start.size()) == core_.num_variables) {
    bool integral = true;
    for (int v : integer_vars_) {
      if (!IsIntegral(options.warm_start[v], kIntegralityTol)) {
        integral = false;
        break;
      }
    }
    if (integral && core_.IsFeasible(options.warm_start)) {
      best = options.warm_start;
      best_obj = core_.ObjectiveValue(best);
      have_incumbent = true;
      result.warm_start_returned = true;
    }
  }

  // Accepts a candidate incumbent under the deterministic total order:
  // higher objective wins; equal objectives go to the lexicographically
  // smallest id.
  const auto consider_incumbent = [&](double obj, const std::string& id,
                                      std::vector<double>&& values) {
    if (have_incumbent && !(obj > best_obj || (obj == best_obj && id < best_id))) {
      return;
    }
    best = std::move(values);
    best_obj = obj;
    best_id = id;
    have_incumbent = true;
    result.warm_start_returned = false;
    ++result.incumbent_improvements;
  };

  // Every node LP runs on the shared core plus its bound overlay, so a
  // node's end state is exactly its children's start. With basis
  // warm-starting, the root starts from the cross-solve hint (e.g. the
  // previous scheduling cycle's root basis); a node with no exported parent
  // state starts cold.
  SimplexOptions root_options;
  if (options.basis_warmstart) {
    root_options.start_basis = options.root_basis;
  }
  const SimplexOptions node_options;

  std::vector<Node> stack;
  stack.push_back(Node{"", {}, kLpInfinity, nullptr});
  result.max_queue_depth = 1;

  std::vector<Node> wave;
  // Set when a budget stops the search before the stack empties: the
  // incumbent is then only the best found, not proven optimal.
  bool truncated = false;

  while (!stack.empty() && !truncated) {
    if ((options.max_nodes > 0 && result.nodes_explored >= options.max_nodes) ||
        out_of_time()) {
      truncated = true;
      break;
    }

    // Pop the wave and take the incumbent bound it prunes against. The bound
    // stays fixed for the whole wave even as incumbents improve within it
    // (see the header comment).
    int budget_room = std::numeric_limits<int>::max();
    if (options.max_nodes > 0) {
      budget_room = options.max_nodes - result.nodes_explored;
    }
    const int take =
        std::min({kBatchWidth, static_cast<int>(stack.size()), budget_room});
    wave.clear();
    for (int i = 0; i < take; ++i) {
      wave.push_back(std::move(stack.back()));
      stack.pop_back();
    }
    const double wave_bound =
        have_incumbent ? best_obj : -std::numeric_limits<double>::infinity();

    // Solve and commit each node in pop order, so every incumbent update,
    // prune, node count, and child push is deterministic.
    for (Node& node : wave) {
      if (out_of_time()) {
        truncated = true;  // The rest of the wave is dropped.
        break;
      }
      if (node.parent_bound <= wave_bound + 1e-9) {
        continue;  // Dominated subtree; not counted.
      }
      const LpSolution relax =
          node.start != nullptr
              ? workspace.SolveFrom(core_, node.fixes, *node.start)
              : workspace.Solve(core_, node.fixes, node.id.empty() ? root_options : node_options);
      // A node that will branch hands its end state to its children. The
      // incumbent only rises within a wave, so a node no better than
      // `wave_bound` never branches.
      std::shared_ptr<const FactoredStart> child_start;
      if (options.basis_warmstart && relax.status == LpStatus::kOptimal &&
          relax.objective > wave_bound + 1e-9 && HasFractional(relax.values)) {
        child_start = workspace.ExportStart();
      }

      ++result.nodes_explored;
      result.lp_iterations += relax.iterations;
      result.lp_phase1_iterations += relax.stats.phase1_iterations;
      result.lp_phase2_iterations += relax.stats.phase2_iterations;
      result.lp_dual_iterations += relax.stats.dual_iterations;
      result.ftran_count += relax.stats.ftran;
      result.btran_count += relax.stats.btran;
      result.refactorizations += relax.stats.refactorizations;
      if (relax.stats.warm_basis_used) {
        ++result.warm_started_nodes;
      }
      if (node.id.empty()) {
        result.root_iterations = relax.iterations;
        result.root_warm = relax.stats.warm_basis_used;
        if (relax.status == LpStatus::kOptimal) {
          result.root_objective = relax.objective;
          result.root_basis = relax.basis;  // Exported for cross-solve reuse.
        }
      }
      if (relax.status == LpStatus::kInfeasible) {
        continue;
      }
      if (relax.status == LpStatus::kUnbounded) {
        // Integral restriction of an unbounded relaxation: give up on
        // bounding and rely on incumbents only (does not occur for scheduler
        // models).
        continue;
      }
      if (relax.values.empty()) {
        // Phase 1 stopped at the pivot cap or broke down numerically: no
        // point to bound or branch on, so the subtree is dropped.
        continue;
      }
      if (have_incumbent && relax.objective <= best_obj + 1e-9) {
        continue;
      }

      // Find the most fractional integer variable.
      int branch_var = -1;
      double branch_frac = 0.0;
      for (int v : integer_vars_) {
        const double value = relax.values[v];
        if (!IsIntegral(value, kIntegralityTol)) {
          const double frac = std::fabs(value - std::round(value));
          if (frac > branch_frac) {
            branch_frac = frac;
            branch_var = v;
          }
        }
      }

      if (branch_var < 0) {
        // Integral solution: snap and accept.
        std::vector<double> snapped = relax.values;
        for (int v : integer_vars_) {
          snapped[v] = std::round(snapped[v]);
        }
        if (core_.IsFeasible(snapped)) {
          const double obj = core_.ObjectiveValue(snapped);
          consider_incumbent(obj, node.id, std::move(snapped));
        }
        continue;
      }

      // Use a rounding pass for an early incumbent before descending.
      std::vector<double> rounded;
      if (GreedyRound(relax.values, &rounded)) {
        const double obj = core_.ObjectiveValue(rounded);
        consider_incumbent(obj, node.id + "r", std::move(rounded));
      }

      // Branch: explore the nearest integer side first (pushed last). Both
      // children resume this node's exported end state.
      const double value = relax.values[branch_var];
      const double floor_v = std::floor(value);
      const double ceil_v = std::ceil(value);
      Node down{node.id + "0", node.fixes, relax.objective, child_start};
      down.fixes.push_back(BoundFix{branch_var, core_.lower[branch_var], floor_v});
      Node up{node.id + "1", node.fixes, relax.objective, std::move(child_start)};
      up.fixes.push_back(BoundFix{branch_var, ceil_v, core_.upper[branch_var]});
      if (value - floor_v >= 0.5) {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      } else {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      }
    }
    result.max_queue_depth =
        std::max(result.max_queue_depth, static_cast<int>(stack.size()));
  }

  if (!have_incumbent) {
    result.status = MilpStatus::kInfeasible;
    return result;
  }
  result.status = truncated ? MilpStatus::kFeasible : MilpStatus::kOptimal;
  result.objective = best_obj;
  result.values = std::move(best);
  return result;
}

}  // namespace threesigma
