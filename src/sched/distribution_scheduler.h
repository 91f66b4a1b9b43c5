// 3σSched — distribution-based MILP scheduling (§3, §4.2, §4.3).
//
// One configurable class covers six of the paper's seven systems (Table 1 +
// the Fig. 8 ablations); only Prio lives elsewhere:
//
//   system         use_distribution  overestimate_handling  adaptive_oe  predictor
//   3Sigma         yes               yes                    yes          3σPredict
//   3SigmaNoDist   no (points)       yes                    yes          3σPredict
//   3SigmaNoOE     yes               no                     —            3σPredict
//   3SigmaNoAdapt  yes               yes                    no (always)  3σPredict
//   PointPerfEst   no (points)       no                     —            oracle
//   PointRealEst   no (points)       no                     —            3σPredict
//
// Each cycle the scheduler:
//   1. conditions every running job's distribution on its elapsed time
//      (Eq. 2) and applies exponential under-estimate extension once a job
//      outruns its entire history (§4.2.1),
//   2. computes expected free capacity per (group, time slot) as capacity
//      minus Σ k·(1 − CDF) over running jobs (Eq. 3),
//   3. enumerates placement options (group × start slot) per pending job and
//      values each by expected utility (Eq. 1), with the §4.2.2/§4.2.3
//      over-estimate utility extension where enabled,
//   4. compiles options into a 0/1 MILP with at-most-one demand rows,
//      expected-capacity rows, and preemption credit terms (§4.3.5),
//   5. solves with warm start + time/node budget and executes slot-0 starts.

#ifndef SRC_SCHED_DISTRIBUTION_SCHEDULER_H_
#define SRC_SCHED_DISTRIBUTION_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/histogram/empirical_distribution.h"
#include "src/predict/predictor.h"
#include "src/sched/scheduler.h"
#include "src/sched/valuation.h"
#include "src/solver/simplex.h"

namespace threesigma {

// Upper bound on DistSchedulerConfig::solver_threads accepted from the
// command line (each thread is a what-if fan-out worker).
inline constexpr int kMaxSolverThreads = 64;

struct DistSchedulerConfig {
  std::string name = "3Sigma";

  // Core policy toggles (see table above).
  bool use_distribution = true;
  bool overestimate_handling = true;
  bool adaptive_oe = true;
  // §4.2.3: enable OE handling when P(T <= deadline window) is below this.
  double oe_probability_threshold = 0.05;

  // §4.3.5 preemption of running best-effort jobs.
  bool enable_preemption = true;

  // Plan-ahead window (§4.3.3) and its start-slot discretization.
  Duration planahead = 1200.0;
  int num_start_slots = 6;
  // Scheduling period; also the unit of the exponential under-estimate
  // increments (§4.2.1).
  Duration cycle_period = 10.0;

  // Solver budgets (§4.3.6: "best solution found within a configurable
  // fraction of its scheduling interval").
  double solver_time_limit_seconds = 0.1;
  int solver_max_nodes = 6;

  // At most this many pending jobs enter one MILP (SLO-deadline order first);
  // the remainder waits for a later cycle.
  int max_pending_considered = 48;

  // Cycles re-solve only when state changed (arrival/completion/preemption),
  // a planned deferred start comes due, or this much time passed since the
  // last solve (expected capacity drifts as conditional distributions age).
  Duration max_solve_skip = 30.0;

  // Worker threads for the digital twin's what-if scenario fan-out
  // (`serve --twin`; WhatIfEngine). The MILP solver itself always runs on
  // the scheduling thread, so this never changes a decision. The name
  // predates the single-threaded solver.
  int solver_threads = 1;

  // Debug oracle for the valuation engine and the warm root; tests only.
  // Every valuation kernel and survival answer is TS_CHECKed against the
  // generic per-atom loop (bitwise), and every valuation table cache hit
  // against a table rebuilt from the job's current distribution and utility
  // (bitwise) — so a missed InvalidateJob aborts. Each cycle's root LP,
  // started from the mapped basis, is also re-solved cold and its objective
  // TS_CHECKed to 1e-9 relative. Decisions and per-cycle counters are
  // unchanged: the re-solves reach no per-cycle record.
  bool crosscheck = false;
};

class DistributionScheduler : public Scheduler {
 public:
  // `predictor` must outlive the scheduler.
  DistributionScheduler(const ClusterConfig& cluster, RuntimePredictor* predictor,
                        DistSchedulerConfig config);

  void OnJobArrival(const JobSpec& spec, Time now) override;
  void OnJobStarted(JobId id, int group, Time now) override;
  void OnJobFinished(JobId id, Time now, Duration observed_runtime) override;
  void OnJobPreempted(JobId id, Time now) override;
  // Fault recovery (§4.2 applied to restarts): requeues like a preemption,
  // then (a) bumps the attempt count and re-predicts with an "attempts=k"
  // feature so restarted jobs build their own history population, and (b)
  // treats the restart as a likely mis-estimate — the original estimate
  // ignores the lost work — enabling the over-estimate utility decay.
  void OnJobFaultKilled(JobId id, Time now) override;
  // Online cancellation: drops the pending job like an abandonment (it never
  // ran, so there is no capacity contribution to retire).
  void OnJobCancelled(JobId id, Time now) override;
  // Node crash/repair: invalidates the solve-skip plan cache (the previous
  // plan was drawn against stale capacity, so the next cycle must re-solve).
  void OnCapacityChanged(int group, int available_nodes, Time now) override;
  CycleResult RunCycle(Time now, const ClusterStateView& state) override;
  std::string name() const override { return config_.name; }

  // Checkpointing: serializes what only the scheduler knows (the persisted
  // JobInfo fields by job id, pending order, solve-skip state, the keyed
  // root basis, and the valuation cache's key set) into a "sched" section,
  // then the predictor into a "predict" section. RestoreState accepts only
  // the current section version and fails the reader soft on any other. It
  // requires a scheduler constructed with the same config and predictor
  // graph (the simulator checks the cluster). OnJobsRestored re-derives the
  // rest (see JobInfo); the next solve recomputes Eq. 3 from the running set.
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;
  void OnJobsRestored(const std::vector<const JobRecord*>& live, SnapshotReader& reader) override;

  // Replaces the policy configuration of a live scheduler at a cycle
  // boundary (digital-twin scenario overrides and opt-in advisor
  // auto-apply). The job table survives; derived per-job state is rebuilt
  // under the new policy: sched_dist is re-predicted when use_distribution
  // flips, the OE decay gate is re-evaluated for every job, and the
  // valuation tables, solve-skip plan, and warm-start basis are all reset
  // (they encode the old policy). The cluster and predictor are unchanged;
  // `config.name` is adopted as-is.
  void UpdateConfig(const DistSchedulerConfig& config);

  // Diagnostics.
  int pending_count() const { return static_cast<int>(pending_.size()); }
  const DistSchedulerConfig& config() const { return config_; }
  // Eq. 3 running-job consumption per (group, slot) as of the last solve
  // (empty before the first): expected free capacity is
  // node_count − expected_consumed()[g][i].
  const std::vector<std::vector<double>>& expected_consumed() const { return consumed_; }

 private:
  // OnJobsRestored re-derives spec, group, start_time, attempts (the
  // record's fault_kills) and effective_utility from the simulator's record;
  // the other fields are persisted.
  struct JobInfo {
    JobSpec spec;
    // Distribution actually used for scheduling: the predictor's histogram
    // distribution, or a point mass in NoDist/point modes.
    EmpiricalDistribution sched_dist;
    // Always ApplyOverestimateDecay(info, /*force=*/attempts > 0).
    UtilityFunction effective_utility = UtilityFunction::BestEffortLinear(1.0, 0.0, 1.0);

    // Fault restarts of this job so far; > 0 appends an "attempts=k" feature
    // to the features it is predicted and recorded under (AttemptFeatures),
    // so the predictor's history keys on attempt counts.
    int attempts = 0;

    int group = -1;  // >= 0 exactly while running.
    Time start_time = kNever;

    // §4.2.1 exponential under-estimate extension state.
    int underest_level = -1;     // -1: not yet past the max observed runtime.
    Time underest_finish = kNever;

    // Warm-start memory: last cycle's planned option.
    int planned_group = -1;
    Time planned_start = kNever;

    // This job's part of the kept root basis (see basis_epoch_), current
    // only while basis_epoch == basis_epoch_: the status of its option
    // column for (group g, start slot s) at option_status[g * slots + s],
    // of its demand row's slack, and of its preemption column. The defaults
    // are what a key absent from the last model maps to: a column at its
    // lower bound, a row's slack basic.
    std::vector<BasisStatus> option_status;
    BasisStatus demand_status = BasisStatus::kBasic;
    BasisStatus preempt_status = BasisStatus::kAtLower;
    int64_t basis_epoch = -1;
  };

  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  // Re-predicts info.sched_dist from the job's attempt features under the
  // current policy (the histogram distribution, or a point mass at its
  // estimate).
  void PredictSchedDist(JobInfo& info) const;

  // Recomputes info.effective_utility from the current sched_dist
  // (§4.2.2/§4.2.3). `force` bypasses the adaptive gate (used for fault
  // restarts, which are treated as likely mis-estimates).
  void ApplyOverestimateDecay(JobInfo& info, bool force) const;

  // Refreshes the under-estimate extension state of a running job (§4.2.1).
  void UpdateUnderestimate(JobInfo& info, Time now) const;

  // Per-slot survival vector of a running job at `now`, conditioned on its
  // elapsed time (Eq. 2), or its under-estimate extension's point estimate;
  // reads the under-estimate state, so RunCycle calls UpdateUnderestimate
  // first. The Eq. 2 ratios are served from the job's prefix-sum tables
  // (zero-copy; may populate the mutable table cache).
  void ComputeRunningSurvival(const JobInfo& info, Time now, std::vector<double>* out) const;

  // Values one considered job's (group, slot) options into `out`, building
  // or reusing its valuation tables group by group; `counters` collects the
  // cache traffic and kernel calls.
  void ValueJobOptions(const JobInfo& info, Time now, ValuationCounters* counters,
                       JobValuation* out);

  const ClusterConfig& cluster_;
  RuntimePredictor* predictor_;
  DistSchedulerConfig config_;

  std::map<JobId, JobInfo> jobs_;
  std::vector<JobId> pending_;  // Arrival order.

  // Solve-skip state (see DistSchedulerConfig::max_solve_skip).
  bool dirty_ = true;
  Time last_solve_ = -1e18;

  // Eq. 3 as of the last solve: consumed_[g][i] = Σ k·(1 − CDF) over the
  // jobs running on group g, at slot offset i. RunCycle re-sums it from the
  // running set at every solve; it is never persisted.
  std::vector<std::vector<double>> consumed_;

  // The last solved root relaxation's basis, kept by key and mapped onto the
  // next cycle's model as its root hint (§4.3.6 "seeding the solver with the
  // previous solution" applied to the simplex itself). An option column is
  // keyed by (job, group, start slot), a preemption column and a demand row
  // by job, a capacity row by (group, slot offset). Job keys live in their
  // JobInfo, stamped with the epoch that wrote them, so a job absent from
  // the last model reads as new without any per-cycle clearing; capacity
  // rows live in capacity_status_ (groups × slots, kBasic where the model
  // had no row). capacity_status_ is empty while no basis is kept.
  int64_t basis_epoch_ = 0;
  std::vector<BasisStatus> capacity_status_;

  // Eq. 1 valuation engine state. Mutable because ComputeRunningSurvival is
  // const (pure w.r.t. observable scheduler state) but may populate the
  // memoized table cache on a lookup miss.
  mutable ValuationEngine valuation_;
  // The valuation cache's saved keys, from RestoreState to OnJobsRestored.
  std::vector<std::pair<JobId, double>> restored_table_keys_;
  // Per-considered-job option slots (the MILP's options point into their
  // consumption arenas) and the survival staging buffer; cleared and
  // refilled each cycle, capacity retained, so steady-state valuation does
  // no hot-path allocation.
  std::vector<JobValuation> value_stage_;
  std::vector<double> survival_scratch_;
};

}  // namespace threesigma

#endif  // SRC_SCHED_DISTRIBUTION_SCHEDULER_H_
