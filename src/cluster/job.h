// Job model.
//
// Jobs are gangs of `num_tasks` single-node tasks (the evaluation's
// mapper-only Gridmix jobs): all tasks start together on one node group and
// the job finishes when its runtime elapses. SLO jobs carry deadlines and
// soft placement preferences — running on a non-preferred group stretches
// the runtime by `nonpreferred_slowdown` (1.5× in the paper's workloads).

#ifndef SRC_CLUSTER_JOB_H_
#define SRC_CLUSTER_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/utility.h"
#include "src/common/units.h"
#include "src/predict/prediction.h"

namespace threesigma {

class ClusterConfig;
class SnapshotReader;
class SnapshotWriter;

using JobId = int64_t;

enum class JobType {
  kSlo,         // Deadline-bound production job.
  kBestEffort,  // Latency-sensitive best-effort job.
};

struct JobSpec {
  JobId id = 0;
  std::string name;
  std::string user;
  JobType type = JobType::kBestEffort;

  Time submit_time = 0.0;
  // Ground-truth runtime on *preferred* resources; hidden from all
  // non-oracle predictors.
  Duration true_runtime = 0.0;
  // Gang width: nodes required, all simultaneously.
  int num_tasks = 1;

  // SLO only: absolute completion deadline.
  Time deadline = kNever;

  // Group ids this job prefers; empty means "indifferent" (all groups run at
  // full speed). Non-preferred groups stretch the runtime.
  std::vector<int> preferred_groups;
  double nonpreferred_slowdown = 1.5;

  // Utility of completing at a given time (§3.1).
  UtilityFunction utility = UtilityFunction::BestEffortLinear(1.0, 0.0, 3600.0);

  // Features for 3σPredict ("user=...", "jobname=...", ...).
  JobFeatures features;

  bool is_slo() const { return type == JobType::kSlo; }
  bool PrefersGroup(int group_id) const;
  // Runtime multiplier on `group_id`: 1.0 if preferred/indifferent, else the
  // slowdown factor.
  double RuntimeMultiplier(int group_id) const;
  // Ground-truth runtime on the given group.
  Duration TrueRuntimeOn(int group_id) const { return true_runtime * RuntimeMultiplier(group_id); }
  // The deadline slack definition of §5:
  //   (deadline - submit - runtime) / runtime * 100.
  double DeadlineSlackPercent() const;

  // Snapshot codec hooks: raw payload, composable into a parent section.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);
};

// The one admission check for a job entering a run from outside: service
// submissions, simulator injections and restored snapshots. Rejects, with
// `*error` set:
//   - a non-finite number anywhere in the spec (so a deadline must be
//     kNever or finite);
//   - a negative submit_time, or a non-positive true_runtime or
//     nonpreferred_slowdown;
//   - a utility that breaks its factories' invariants (value > 0, and
//     window > 0 for the decaying kinds);
//   - a gang that is empty or wider than every node group of `cluster`.
bool ValidateJobSpec(const JobSpec& spec, const ClusterConfig& cluster, std::string* error);

enum class JobStatus {
  kPending,
  kRunning,
  kCompleted,
  kAbandoned,  // Scheduler gave up (zero achievable utility).
  kUnfinished, // Still pending/running when the simulation stopped.
};

// One contiguous execution of a job's gang on a node group. Preempted jobs
// have several runs; only the last can be `completed`.
struct JobRun {
  int group = -1;
  Time start = kNever;
  Time end = kNever;  // Completion, preemption, or the simulation stop.
  bool completed = false;
};

// The simulator's record of one job: the job table's single persisted copy
// of its spec and run state (schedulers re-derive theirs from it at restore).
struct JobRecord {
  JobSpec spec;
  JobStatus status = JobStatus::kPending;
  Time start_time = kNever;       // Of the current or final (completing) run.
  Time finish_time = kNever;
  int group = -1;                 // -1 while pending.
  int preemptions = 0;
  // Runs of this job killed by faults (node crashes or injected task kills).
  int fault_kills = 0;
  // Machine-seconds of the run that completed (goodput contribution).
  double completed_work = 0.0;
  // Full occupancy history, including preempted runs (cluster space-time
  // provenance; see metrics/timeline.h).
  std::vector<JobRun> runs;

  bool MissedDeadline() const;
};

}  // namespace threesigma

#endif  // SRC_CLUSTER_JOB_H_
