#include "src/solver/milp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace {

// Nodes dispatched per wave when MilpOptions::batch_width is 0. Chosen large
// enough to keep several workers busy once the tree fans out, small enough
// that the incumbent bound (which only advances at wave commits) stays fresh.
constexpr int kDefaultBatchWidth = 16;

struct Node {
  // Tree path: '0' for the floor child, '1' for the ceil child. Lexicographic
  // order on ids is the deterministic tie-break between equal-objective
  // incumbents; '~' (warm start) and a trailing 'r' (greedy rounding) sort
  // after real tree ids so exact tree solutions take precedence.
  std::string id;
  std::vector<BoundFix> fixes;  // Branching decisions, full path from the root.
  double parent_bound;          // LP bound of the parent (pruning hint).
  // The parent's optimal basis (shared between siblings). The child differs
  // from the parent by one bound change, so this basis is dual feasible for
  // the child and the LP re-optimizes in a few dual pivots.
  std::shared_ptr<const LpBasis> parent_basis;
};

bool IsIntegral(double v, double tol) { return std::fabs(v - std::round(v)) <= tol; }

}  // namespace

MilpSolver::MilpSolver(const LpModel& model, std::vector<int> integer_vars)
    : model_(model), integer_vars_(std::move(integer_vars)), core_(model) {
  for (int v : integer_vars_) {
    TS_CHECK_GE(v, 0);
    TS_CHECK_LT(v, model_.num_variables());
  }
  for (const LpRow& row : model_.rows()) {
    all_rows_le_ = all_rows_le_ && row.sense == RowSense::kLessEqual;
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
    const double target = std::min(std::ceil(relaxed[v] - 1e-9), model_.upper(v));
    if (target - floor_v > 0.0 && model_.objective(v) >= 0.0) {
      order.push_back(RoundCandidate{relaxed[v] - floor_v, model_.objective(v), v, target});
    }
  }
  // Row activities for the floored point.
  std::vector<double>& activity = round_activity_;
  activity.assign(static_cast<size_t>(model_.num_rows()), 0.0);
  for (int r = 0; r < model_.num_rows(); ++r) {
    for (const LpTerm& t : model_.row(r).terms) {
      activity[static_cast<size_t>(r)] += t.coeff * x[t.var];
    }
  }
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
  if (!model_.IsFeasible(x)) {
    return false;
  }
  *out = std::move(x);
  return true;
}

MilpSolution MilpSolver::Solve(const MilpOptions& options) {
  // Phase::kOther: this span nests inside the scheduler's kSolve scope, and
  // tagging it with a profiler phase would double-count the solve time.
  // Conditional (not pool-conditional): shard sub-solves suppress it in both
  // the serial and pooled paths so traces stay thread-count-invariant.
  static const obs::SpanName kSolveSpanName("solver.milp", obs::Phase::kOther);
  std::optional<obs::Span> solve_span;
  if (options.emit_span) {
    solve_span.emplace(kSolveSpanName);
  }
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();
  const auto seconds_elapsed = [&]() {
    const std::chrono::duration<double> elapsed = Clock::now() - start_time;
    return elapsed.count();
  };
  const auto out_of_time = [&]() {
    if (options.time_limit_seconds <= 0.0) {
      return false;
    }
    return seconds_elapsed() >= options.time_limit_seconds;
  };

  MilpSolution result;

  // Worker setup. The caller always participates, so `workers` counts it;
  // the sequential path (workers == 1, no pool) touches no thread machinery.
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && options.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(options.num_threads);
    pool = local_pool.get();
  }
  const int workers = pool != nullptr ? pool->size() : 1;
  const int batch_width = options.batch_width > 0 ? options.batch_width : kDefaultBatchWidth;

  // Per-worker simplex state; every node LP runs on the shared core_ with
  // its branching decisions as a bound overlay.
  std::vector<LpWorkspace> workspaces(static_cast<size_t>(workers));

  // Install the warm start as the initial incumbent if it is valid.
  bool have_incumbent = false;
  std::vector<double> best;
  double best_obj = 0.0;
  std::string best_id = "~";  // Sorts after every tree id.
  if (!options.warm_start.empty() &&
      static_cast<int>(options.warm_start.size()) == model_.num_variables()) {
    bool integral = true;
    for (int v : integer_vars_) {
      if (!IsIntegral(options.warm_start[v], options.integrality_tol)) {
        integral = false;
        break;
      }
    }
    if (integral && model_.IsFeasible(options.warm_start)) {
      best = options.warm_start;
      best_obj = model_.ObjectiveValue(best);
      have_incumbent = true;
      result.warm_start_returned = true;
    }
  }

  // The incumbent objective, readable lock-free by workers mid-wave. It only
  // advances at the sequential wave commits below — that is what makes the
  // search deterministic (see the header comment).
  std::atomic<double> incumbent_bound{
      have_incumbent ? best_obj : -std::numeric_limits<double>::infinity()};

  // Accepts a candidate incumbent under the deterministic total order:
  // higher objective wins; equal objectives go to the lexicographically
  // smallest id. Only called from the sequential commit phase.
  const auto consider_incumbent = [&](double obj, const std::string& id,
                                      std::vector<double>&& values, bool from_tree) {
    if (have_incumbent && !(obj > best_obj || (obj == best_obj && id < best_id))) {
      return;
    }
    best = std::move(values);
    best_obj = obj;
    best_id = id;
    have_incumbent = true;
    if (from_tree) {
      result.warm_start_returned = false;
    }
    result.incumbent_improvements.push_back(IncumbentImprovement{seconds_elapsed(), obj});
  };

  std::vector<Node> stack;
  Node root{"", {}, kLpInfinity, nullptr};
  if (options.basis_warmstart && !options.root_basis.empty()) {
    // Cross-solve hint (e.g. the previous scheduling cycle's root basis).
    root.parent_basis = std::make_shared<const LpBasis>(options.root_basis);
  }
  stack.push_back(std::move(root));
  result.max_queue_depth = 1;

  std::vector<Node> wave;
  std::vector<LpSolution> relaxations;
  std::vector<char> solved;

  while (!stack.empty()) {
    if ((options.max_nodes > 0 && result.nodes_explored >= options.max_nodes) ||
        out_of_time()) {
      break;
    }

    // --- Dispatch: pop the wave, pruning against the committed incumbent. --
    int budget_room = std::numeric_limits<int>::max();
    if (options.max_nodes > 0) {
      budget_room = options.max_nodes - result.nodes_explored;
    }
    const int take =
        std::min({batch_width, static_cast<int>(stack.size()), budget_room});
    wave.clear();
    for (int i = 0; i < take; ++i) {
      wave.push_back(std::move(stack.back()));
      stack.pop_back();
    }

    // --- Solve: LP relaxations in parallel, one workspace per worker. -------
    // Per-node outcome: 0 = unsolved (wall clock expired), 1 = LP solved,
    // 2 = pruned lock-free against the incumbent bound.
    constexpr char kUnsolved = 0, kSolved = 1, kPruned = 2;
    const int n = static_cast<int>(wave.size());
    relaxations.assign(static_cast<size_t>(n), LpSolution{});
    solved.assign(static_cast<size_t>(n), kUnsolved);
    const auto solve_node = [&](int worker, int index) {
      if (out_of_time()) {
        return;  // Left unsolved; requeued by the commit phase.
      }
      const Node& node = wave[static_cast<size_t>(index)];
      // Lock-free bound prune. The atomic only advances at wave commits, so
      // this reads the same value in every run — deterministic.
      if (node.parent_bound <= incumbent_bound.load(std::memory_order_relaxed) + 1e-9) {
        solved[static_cast<size_t>(index)] = kPruned;
        return;
      }
      SimplexOptions lp_options;
      if (options.basis_warmstart && node.parent_basis != nullptr) {
        lp_options.start_basis = *node.parent_basis;
        // Solve in the full space: the parent basis is exactly dual feasible
        // there (the child differs by one bound change only), whereas each
        // node's presolve reduces a different variable subset and the mapped
        // basis loses that property. Fixed variables cost nothing unreduced —
        // pricing skips them.
        lp_options.presolve = false;
      }
      relaxations[static_cast<size_t>(index)] =
          workspaces[static_cast<size_t>(worker)].Solve(core_, node.fixes, lp_options);
      solved[static_cast<size_t>(index)] = kSolved;
    };
    if (pool != nullptr) {
      pool->ParallelFor(n, solve_node);
    } else {
      for (int i = 0; i < n; ++i) {
        solve_node(0, i);
      }
    }

    // --- Commit: sequential, in pop order, so every incumbent update,
    // prune, node count, and child push is deterministic. ------------------
    bool timed_out = false;
    for (int i = 0; i < n; ++i) {
      Node& node = wave[static_cast<size_t>(i)];
      if (solved[static_cast<size_t>(i)] == kPruned) {
        continue;  // Dominated subtree; not counted, exactly like a pop-prune.
      }
      if (solved[static_cast<size_t>(i)] == kUnsolved) {
        // Ran out of wall clock mid-wave: requeue this and the remaining
        // unsolved nodes (reverse order keeps the pop order intact).
        for (int j = n - 1; j >= i; --j) {
          if (solved[static_cast<size_t>(j)] == kUnsolved) {
            stack.push_back(std::move(wave[static_cast<size_t>(j)]));
          }
        }
        timed_out = true;
        break;
      }
      const LpSolution& relax = relaxations[static_cast<size_t>(i)];
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
      if (node.id.empty() && relax.status == LpStatus::kOptimal) {
        result.root_basis = relax.basis;  // Exported for cross-solve reuse.
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
        if (!IsIntegral(value, options.integrality_tol)) {
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
        if (model_.IsFeasible(snapped)) {
          const double obj = model_.ObjectiveValue(snapped);
          consider_incumbent(obj, node.id, std::move(snapped), /*from_tree=*/true);
        }
        continue;
      }

      // Use a rounding pass for an early incumbent before descending.
      std::vector<double> rounded;
      if (GreedyRound(relax.values, &rounded)) {
        const double obj = model_.ObjectiveValue(rounded);
        consider_incumbent(obj, node.id + "r", std::move(rounded), /*from_tree=*/true);
      }

      // Branch: explore the nearest integer side first (pushed last). Both
      // children share this node's optimal basis as their warm start.
      std::shared_ptr<const LpBasis> child_basis;
      if (options.basis_warmstart && !relax.basis.empty()) {
        child_basis = std::make_shared<const LpBasis>(relax.basis);
      }
      const double value = relax.values[branch_var];
      const double floor_v = std::floor(value);
      const double ceil_v = std::ceil(value);
      Node down{node.id + "0", node.fixes, relax.objective, child_basis};
      down.fixes.push_back(BoundFix{branch_var, model_.lower(branch_var), floor_v});
      Node up{node.id + "1", node.fixes, relax.objective, child_basis};
      up.fixes.push_back(BoundFix{branch_var, ceil_v, model_.upper(branch_var)});
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
    if (have_incumbent) {
      incumbent_bound.store(best_obj, std::memory_order_relaxed);
    }
    if (timed_out) {
      break;
    }
  }

  result.solve_seconds = seconds_elapsed();
  {
    struct MilpCounters {
      obs::Counter* solves;
      obs::Counter* nodes;
      obs::Counter* warm_started_nodes;
      obs::Counter* incumbent_improvements;
      obs::Histogram* nodes_hist;
    };
    static const MilpCounters* const counters = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* c = new MilpCounters();
      c->solves = reg.GetCounter("solver.milp_solves");
      c->nodes = reg.GetCounter("solver.milp_nodes");
      c->warm_started_nodes = reg.GetCounter("solver.milp_warm_started_nodes");
      c->incumbent_improvements = reg.GetCounter("solver.milp_incumbent_improvements");
      c->nodes_hist = reg.GetHistogram("solver.milp_nodes_per_solve",
                                       {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
      return c;
    }();
    counters->solves->Increment();
    counters->nodes->Add(result.nodes_explored);
    counters->warm_started_nodes->Add(result.warm_started_nodes);
    counters->incumbent_improvements->Add(
        static_cast<int64_t>(result.incumbent_improvements.size()));
    counters->nodes_hist->Observe(static_cast<double>(result.nodes_explored));
  }
  if (!have_incumbent) {
    result.status = MilpStatus::kInfeasible;
    return result;
  }
  result.status = stack.empty() ? MilpStatus::kOptimal : MilpStatus::kFeasible;
  result.objective = best_obj;
  result.values = std::move(best);
  return result;
}

}  // namespace threesigma
