// Scheduler interface between the cluster simulator and the scheduling
// policies (3σSched, the point-estimate schedulers, and Prio).
//
// The simulator is the source of truth for cluster state; each scheduling
// cycle it hands the scheduler a view of free capacity and running jobs and
// executes the returned decisions (job starts, preemptions, abandonments).

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/common/units.h"
#include "src/obs/cycle_telemetry.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

struct RunningJobView {
  JobId id = 0;
  int group = 0;
  Time start_time = 0.0;
  int num_tasks = 0;
  JobType type = JobType::kBestEffort;
};

struct ClusterStateView {
  const ClusterConfig* cluster = nullptr;
  // Free *available* nodes per group id (excludes both occupied and crashed
  // nodes).
  std::vector<int> free_nodes;
  // Currently available (non-crashed) nodes per group id; equals the nominal
  // node_count when no fault injection is active. Empty in hand-built views
  // (tests): consumers fall back to the nominal capacity then.
  std::vector<int> available_nodes;
  std::vector<RunningJobView> running;

  // Available nodes of `group`, falling back to nominal capacity when the
  // view carries no fault-adjusted timeline.
  int AvailableNodes(int group) const {
    if (group >= 0 && group < static_cast<int>(available_nodes.size())) {
      return available_nodes[static_cast<size_t>(group)];
    }
    return cluster->group(group).node_count;
  }
};

struct Placement {
  JobId job = 0;
  int group = 0;
};

// A reservation the scheduler made for a later start (not executed now; the
// plan is re-evaluated every cycle, per §4.3.1).
struct PlannedPlacement {
  JobId job = 0;
  int group = 0;
  Time start = 0.0;
};

// One cycle's decisions plus its telemetry (the Fig. 12 diagnostics; see
// src/obs/cycle_telemetry.h).
struct CycleResult : CycleTelemetry {
  // Jobs to start now, on the given group.
  std::vector<Placement> start;
  // Running jobs to preempt (kill-and-requeue).
  std::vector<JobId> preempt;
  // Pending jobs the scheduler gives up on (zero achievable utility); the
  // simulator retires them as unscheduled.
  std::vector<JobId> abandon;
  // Deferred reservations (observability only; nothing to execute).
  std::vector<PlannedPlacement> deferred;
  // Never set: Eq. 3 has no cache. Kept only for perfbench's probes, which
  // still read them (the benchmark's next revision drops both).
  int64_t capacity_cache_hits = 0;
  int64_t capacity_cache_misses = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // A new job request arrived (step 1 of Fig. 4); the scheduler queues it and
  // consults its predictor.
  virtual void OnJobArrival(const JobSpec& spec, Time now) = 0;
  // The simulator started a placement this scheduler requested.
  virtual void OnJobStarted(JobId id, int group, Time now) = 0;
  // A running job finished; `observed_runtime` feeds the history (step 4).
  virtual void OnJobFinished(JobId id, Time now, Duration observed_runtime) = 0;
  // A preemption was executed; the job is pending again.
  virtual void OnJobPreempted(JobId id, Time now) = 0;

  // A running job was killed by a fault (node crash or injected task
  // failure) and is pending again. Default: treated like a preemption.
  // Fault-aware schedulers override this to flag the restarted attempt as a
  // likely mis-estimate (§4.2) and feed attempt counts to their predictor.
  virtual void OnJobFaultKilled(JobId id, Time now) { OnJobPreempted(id, now); }

  // A pending job was withdrawn by its submitter (online service CancelJob)
  // and will never run. Only delivered for jobs the scheduler has seen via
  // OnJobArrival; the simulator suppresses the arrival of jobs cancelled
  // before their submit time. Default: ignored (stateless schedulers).
  virtual void OnJobCancelled(JobId id, Time now) {
    (void)id;
    (void)now;
  }

  // The available capacity of `group` changed (node crash/repair); the new
  // post-fault capacity is `available_nodes`. Schedulers that cache plans or
  // capacity state must invalidate on this signal. Default: ignored.
  virtual void OnCapacityChanged(int group, int available_nodes, Time now) {
    (void)group;
    (void)available_nodes;
    (void)now;
  }

  // One scheduling cycle (§4.3.1's periodic re-evaluation).
  virtual CycleResult RunCycle(Time now, const ClusterStateView& state) = 0;

  virtual std::string name() const = 0;

  // Checkpoint hooks. Called between sections (schedulers open their own
  // "sched" — and, where applicable, "predict" — sections so replay_diff can
  // attribute a state divergence to the scheduler vs. the predictor). The
  // payload starts with a kind tag so restoring through a differently-
  // configured scheduler fails the reader. Defaults cover stateless
  // schedulers.
  virtual void SaveState(SnapshotWriter& writer) const {
    writer.BeginSection("sched", 1);
    writer.Tag("stateless");
    writer.EndSection();
  }
  virtual void RestoreState(SnapshotReader& reader) {
    reader.BeginSection("sched");
    reader.Tag("stateless");
    reader.EndSection();
  }
  // Called right after RestoreState with the simulator's records of every
  // arrived job that is pending or running, in job-index order: the only
  // persisted copy of a job's spec and run state. A scheduler re-derives its
  // copy here and latches `reader.Fail` on a mismatch. Default: nothing to
  // derive (stateless schedulers).
  virtual void OnJobsRestored(const std::vector<const JobRecord*>& live, SnapshotReader& reader) {
    (void)live;
    (void)reader;
  }
};

// OnJobsRestored's queue check: `pending` holds each pending record of
// `live` exactly once, and no other id.
inline bool PendingQueueMatches(std::vector<JobId> pending,
                                const std::vector<const JobRecord*>& live) {
  std::vector<JobId> records;
  for (const JobRecord* rec : live) {
    if (rec->status == JobStatus::kPending) {
      records.push_back(rec->spec.id);
    }
  }
  std::sort(pending.begin(), pending.end());
  std::sort(records.begin(), records.end());
  return pending == records;
}

}  // namespace threesigma

#endif  // SRC_SCHED_SCHEDULER_H_
