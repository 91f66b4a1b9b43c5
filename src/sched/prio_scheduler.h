// Prio — the runtime-unaware priority scheduler baseline (Table 1).
//
// Models Borg-style scheduling: SLO jobs take strict priority over
// best-effort jobs and preempt them when the cluster is full; no runtime
// information is consulted. Placement greedily prefers a job's preferred
// groups. Best-effort jobs backfill whatever is left, oldest first.

#ifndef SRC_SCHED_PRIO_SCHEDULER_H_
#define SRC_SCHED_PRIO_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/sched/scheduler.h"

namespace threesigma {

struct PrioSchedulerConfig {
  std::string name = "Prio";
  bool enable_preemption = true;
};

class PrioScheduler : public Scheduler {
 public:
  PrioScheduler(const ClusterConfig& cluster, PrioSchedulerConfig config = {});

  void OnJobArrival(const JobSpec& spec, Time now) override;
  void OnJobStarted(JobId id, int group, Time now) override;
  void OnJobFinished(JobId id, Time now, Duration observed_runtime) override;
  void OnJobPreempted(JobId id, Time now) override;
  void OnJobCancelled(JobId id, Time now) override;
  CycleResult RunCycle(Time now, const ClusterStateView& state) override;
  std::string name() const override { return config_.name; }

  // Checkpointing: the "sched" section holds the pending order only; the
  // specs of the pending and running jobs come from the simulator's records.
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;
  void OnJobsRestored(const std::vector<const JobRecord*>& live, SnapshotReader& reader) override;

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  const ClusterConfig& cluster_;
  PrioSchedulerConfig config_;
  std::map<JobId, JobSpec> jobs_;  // Pending + running specs.
  std::vector<JobId> pending_;
};

}  // namespace threesigma

#endif  // SRC_SCHED_PRIO_SCHEDULER_H_
