// Branch-and-bound mixed-integer solver over an LpCore.
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
// Node LPs: the solver owns the program's LpCore (simplex.h), and every node
// LP runs on it with the node's branching decisions as a bound overlay, in
// one LpWorkspace whose allocations are reused from node to node. A node
// that will branch exports its end state (factored basis and reduced costs),
// and both children resume it with the dual simplex instead of reinverting a
// basis. Rounding, incumbent checks and objective values read the same core.
//
// Search order: the tree is explored in deterministic *waves*. Each wave
// pops up to a fixed number of nodes off the subproblem stack and takes the
// incumbent objective as it stands as the wave's bound. It then solves and
// commits each node in pop order: a node whose parent bound does not beat
// the wave's bound is skipped; any other node's LP relaxation is solved, and
// the node updates the incumbent, is pruned, or pushes its children before
// the next node is solved. Ties between equal-objective incumbents go to the
// lexicographically smallest node id, so the explored tree, node counts, and
// returned solution depend only on the model, the options and the wave
// width. Only the wall-clock budget can break this (it truncates the search
// at a hardware-dependent point). The search runs on the calling thread; the
// wave width stays part of its definition because it fixes which nodes the
// wave-start bound skips (DESIGN.md, "Wave-ordered branch-and-bound").

#ifndef SRC_SOLVER_MILP_H_
#define SRC_SOLVER_MILP_H_

#include <cstdint>
#include <vector>

#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

enum class MilpStatus {
  kOptimal,     // Proven optimal.
  kFeasible,    // Best incumbent at budget expiry.
  kInfeasible,  // No integral feasible point exists (or none found + LP infeasible).
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
  // Nodes whose LP finished from a start (the parent's factored state, or
  // the root basis after install and repair) without a cold restart.
  int warm_started_nodes = 0;
  // The root relaxation: its pivots, whether it ran from a start basis
  // (MilpOptions::root_basis survived install and repair without a cold
  // restart), and, when it solved to optimality, its objective and optimal
  // basis. The scheduler keeps the basis by variable and row identity and
  // maps it onto the next cycle's model as that model's root_basis.
  int root_iterations = 0;
  bool root_warm = false;
  double root_objective = 0.0;
  LpBasis root_basis;
  // True when the returned incumbent came from the warm start and was never
  // improved (diagnostic for the warm-start ablation bench).
  bool warm_start_returned = false;
  // Deepest the subproblem stack got, sampled at the start (1) and after each
  // wave (work-queue depth diagnostic).
  int max_queue_depth = 0;
  // How many times a tree node replaced the incumbent (deterministic: how
  // much the search improved on its first answer).
  int incumbent_improvements = 0;
};

struct MilpOptions {
  // Wall-clock budget in seconds; <= 0 disables the limit. Mirrors the
  // paper's "best solution found within a configurable fraction of the
  // scheduling interval". NOTE: an expiring time limit truncates the search
  // non-deterministically; disable it when bit-reproducibility matters.
  double time_limit_seconds = 0.0;
  // Branch-and-bound node budget; <= 0 disables the limit.
  int max_nodes = 0;
  // Initial incumbent (e.g. the previous scheduling cycle's solution). Used
  // only if it is feasible for the current model.
  std::vector<double> warm_start;
  // Hand each branching node's factored end state to its children, which
  // then re-optimize with a few dual pivots instead of a cold two-phase
  // solve. Every relaxation still solves to proven optimality, so bounds,
  // prunes, and the returned objective are unaffected; a node exports only
  // when it beats its wave's bound and is fractional, so the basis flow is
  // as deterministic as the wave schedule. On a degenerate relaxation a
  // warm solve may land on a different optimal vertex than a cold one, which
  // can reorder branching — with a unique MILP optimum the returned solution
  // is identical either way.
  bool basis_warmstart = true;
  // Starting basis hint for the root relaxation, over this model's
  // variables and rows (e.g. the previous cycle's MilpSolution::root_basis
  // mapped onto this cycle's model). It need be neither primal nor dual
  // feasible (see SolveLp). Ignored unless basis_warmstart is on.
  LpBasis root_basis;
};

class MilpSolver {
 public:
  // `integer_vars` lists the variables constrained to integral values; for
  // the scheduler these are all the [0,1] indicator variables.
  MilpSolver(LpCore core, std::vector<int> integer_vars);

  MilpSolution Solve(const MilpOptions& options = {});

  const LpCore& core() const { return core_; }

 private:
  // Rounds an LP-relaxation point to a feasible integral point greedily;
  // returns true on success.
  bool GreedyRound(const std::vector<double>& relaxed, std::vector<double>* out);
  // True when an integer variable is fractional at `values` (the node will
  // branch unless pruned).
  bool HasFractional(const std::vector<double>& values) const;

  // A variable GreedyRound may raise from its floor to `target`.
  struct RoundCandidate {
    double frac;
    double objective;
    int var;
    double target;
  };

  // Every node LP of every Solve runs on it, and GreedyRound walks its
  // columns.
  LpCore core_;
  std::vector<int> integer_vars_;
  // GreedyRound supports only all-<= models.
  bool all_rows_le_ = true;
  // GreedyRound scratch, reused across calls.
  std::vector<RoundCandidate> round_order_;
  std::vector<double> round_activity_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_MILP_H_
