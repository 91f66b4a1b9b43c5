// Branch-and-bound mixed-integer solver over LpModel.
//
// The scheduler's problems are pure 0/1 programs: one binary indicator per
// placement/preemption option (§4.3.3). The solver mirrors the scalability
// techniques of §4.3.6:
//   - warm start: the previous cycle's placement is validated and installed
//     as the initial incumbent ("leaving the cluster state unchanged ... a
//     feasible solution"),
//   - best-found-within-budget: node and wall-clock budgets bound the search;
//     the incumbent is returned when the budget expires,
//   - a greedy rounding pass on each LP relaxation supplies incumbents early
//     so pruning is effective.
//
// Node LPs: the solver builds the model's LpCore (simplex.h) once, and every
// node LP runs on it with the node's branching decisions as a bound overlay,
// in a per-worker LpWorkspace whose simplex state is reused from node to
// node. The model must not change while the solver lives.
//
// Parallel search: the tree is explored in deterministic *waves*. Each wave
// pops up to `batch_width` nodes off the subproblem stack, solves their LP
// relaxations concurrently (`num_threads` workers sharing the read-only core,
// pulling node indices from a shared atomic cursor and reading the atomic
// incumbent bound lock-free to skip dominated nodes), then commits the
// results sequentially in pop order. Because the wave schedule
// depends only on `batch_width` (never on thread count) and the incumbent
// advances only at the sequential commits — with ties between equal-objective
// incumbents broken toward the lexicographically smallest node id — the
// explored tree, node counts, and returned solution are bit-identical for
// any thread count. Only the wall-clock budget can break this (it truncates
// the search at a hardware-dependent point).

#ifndef SRC_SOLVER_MILP_H_
#define SRC_SOLVER_MILP_H_

#include <cstdint>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

enum class MilpStatus {
  kOptimal,     // Proven optimal.
  kFeasible,    // Best incumbent at budget expiry.
  kInfeasible,  // No integral feasible point exists (or none found + LP infeasible).
};

// One incumbent replacement during the search (Fig. 12-style anytime
// diagnostics: how quickly the solver closes in on its final answer).
struct IncumbentImprovement {
  double seconds = 0.0;  // Offset from the start of Solve (wall clock).
  double objective = 0.0;
};

struct MilpSolution {
  MilpStatus status = MilpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  int nodes_explored = 0;
  int lp_iterations = 0;
  // LP work breakdown across all nodes (see LpStats). With basis warm-starting
  // most nodes re-optimize in a few dual pivots and phase-1 work collapses.
  int64_t lp_phase1_iterations = 0;
  int64_t lp_phase2_iterations = 0;
  int64_t lp_dual_iterations = 0;
  int64_t ftran_count = 0;
  int64_t btran_count = 0;
  int refactorizations = 0;
  // Nodes whose LP accepted a parent basis (install survived repair).
  int warm_started_nodes = 0;
  // Optimal basis of the root relaxation; feed it back as
  // MilpOptions::root_basis on the next, similar model (cross-cycle reuse).
  LpBasis root_basis;
  // True when the returned incumbent came from the warm start and was never
  // improved (diagnostic for the warm-start ablation bench).
  bool warm_start_returned = false;
  // Deepest the subproblem stack ever got (work-queue depth diagnostic).
  int max_queue_depth = 0;
  // Wall-clock time spent inside Solve.
  double solve_seconds = 0.0;
  // Every incumbent replacement, in commit order. The objectives are
  // deterministic; the timestamps are wall clock (diagnostic only).
  std::vector<IncumbentImprovement> incumbent_improvements;
};

struct MilpOptions {
  // Wall-clock budget in seconds; <= 0 disables the limit. Mirrors the
  // paper's "best solution found within a configurable fraction of the
  // scheduling interval". NOTE: an expiring time limit truncates the search
  // non-deterministically; disable it when bit-reproducibility matters.
  double time_limit_seconds = 0.0;
  // Branch-and-bound node budget; <= 0 disables the limit.
  int max_nodes = 0;
  // Integrality tolerance.
  double integrality_tol = 1e-6;
  // Initial incumbent (e.g. the previous scheduling cycle's solution). Used
  // only if it is feasible for the current model.
  std::vector<double> warm_start;
  // Worker threads for the wave-parallel search; <= 1 solves on the calling
  // thread. Ignored when `pool` is set (the pool's size wins).
  int num_threads = 1;
  // Optional borrowed pool (must outlive Solve). Lets the scheduler reuse
  // one pool across cycles instead of spawning threads per solve.
  ThreadPool* pool = nullptr;
  // Nodes dispatched per wave; 0 uses the default. Part of the deterministic
  // schedule: the result depends on this value but never on thread count, so
  // it must NOT be derived from num_threads.
  int batch_width = 0;
  // Thread each node's optimal basis to its children, which then re-optimize
  // with a few dual pivots instead of a cold two-phase solve. Every
  // relaxation still solves to proven optimality, so bounds, prunes, and the
  // returned objective are unaffected; thread-count determinism is fully
  // preserved (the basis flow follows the thread-count-independent wave
  // schedule). On a degenerate relaxation a warm solve may land on a
  // different optimal vertex than a cold one, which can reorder branching —
  // with a unique MILP optimum the returned solution is identical either way.
  bool basis_warmstart = true;
  // Starting basis hint for the root relaxation (e.g. the previous cycle's
  // MilpSolution::root_basis). Ignored unless basis_warmstart is on.
  LpBasis root_basis;
  // Emit the "solver.milp" trace span. The sharded driver turns this off for
  // its sub-solves unconditionally — sub-solves may run on pool workers, and
  // worker-emitted spans would make exported traces depend on thread count.
  bool emit_span = true;
};

class MilpSolver {
 public:
  // `integer_vars` lists the variables constrained to integral values; for
  // the scheduler these are all the [0,1] indicator variables.
  MilpSolver(const LpModel& model, std::vector<int> integer_vars);

  MilpSolution Solve(const MilpOptions& options = {});

 private:
  // Rounds an LP-relaxation point to a feasible integral point greedily;
  // returns true on success.
  bool GreedyRound(const std::vector<double>& relaxed, std::vector<double>* out);

  // A variable GreedyRound may raise from its floor to `target`.
  struct RoundCandidate {
    double frac;
    double objective;
    int var;
    double target;
  };

  const LpModel& model_;
  std::vector<int> integer_vars_;
  // The model in solver form, built once: every node LP of every Solve runs
  // on it, and GreedyRound walks its columns.
  LpCore core_;
  // GreedyRound supports only all-<= models.
  bool all_rows_le_ = true;
  // GreedyRound scratch, reused across calls.
  std::vector<RoundCandidate> round_order_;
  std::vector<double> round_activity_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_MILP_H_
