// Discrete-event cluster simulator.
//
// Replaces the paper's YARN + physical cluster substrate. The simulator owns
// ground truth: job arrivals, node occupancy, completions, and preemption
// execution. Schedulers only see the ClusterStateView handed to them each
// cycle and the arrival/completion callbacks.
//
// Two fidelity modes reproduce the paper's RC256-vs-SC256 split (Table 2):
//   kIdeal         — SC256: exact runtimes, instantaneous task launch.
//   kHighFidelity  — RC256 stand-in: per-job runtime jitter, task launch
//                    overhead, and heartbeat-quantized completion detection,
//                    the dominant noise sources on the real cluster.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/faults/fault_schedule.h"
#include "src/sched/scheduler.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

enum class SimFidelity {
  kIdeal,
  kHighFidelity,
};

// High-fidelity noise: a task's runtime is scaled by ~N(1, stddev) (at
// least 0.5) and its launch takes ~U(1, max) seconds.
inline constexpr double kRuntimeJitterStddev = 0.05;
inline constexpr Duration kLaunchOverheadMax = 3.0;

struct SimOptions {
  Duration cycle_period = 10.0;
  // Reactive scheduling: arrivals and completions trigger an extra cycle at
  // most this soon after the previous one (approximates the paper's 1-2 s
  // cycle granularity without solving the MILP every second). 0 disables.
  Duration reactive_min_gap = 2.0;
  SimFidelity fidelity = SimFidelity::kIdeal;
  // Simulation hard stop this long after the last arrival. The paper's
  // experiments are fixed 5-hour windows at load > 1, so the cluster is
  // saturated throughout; a short drain keeps the metrics window comparable
  // (work not completed by the stop does not count toward goodput, and
  // unfinished SLO jobs count as misses).
  Duration drain_limit = 900.0;
  uint64_t seed = 1;

  // High-fidelity completion detection quantum (the runtime jitter and
  // launch overhead are kRuntimeJitterStddev and kLaunchOverheadMax).
  Duration heartbeat = 3.0;

  // Preemption semantics. false = kill-and-requeue (container clusters,
  // §2.2 "killing"); true = migration-style resume that preserves progress
  // (VM clusters, §2.2 "migrating") — an extension ablated in
  // bench/abl03_preemption.
  bool preemption_resumes = false;

  // Fault injection (src/faults). With the default options (all processes
  // off) and an empty event list, the simulation is bit-identical to a
  // fault-free run. Node churn is sampled from `faults` unless
  // `fault_events` is non-empty, in which case that list is replayed exactly
  // (the probabilistic kill/straggler/stall processes still follow `faults`).
  FaultOptions faults;
  std::vector<FaultEvent> fault_events;

  // Open-workload (online service) mode. The workload is no longer fixed up
  // front: jobs enter via InjectJob() at or after the current sim time, the
  // run never drains on an empty queue until CloseSubmissions() is called,
  // and the hard stop is last_arrival + drain_limit measured from the close.
  // Sampled node churn is rejected in this mode (the churn horizon would be
  // unbounded); pass explicit `fault_events` to replay churn instead.
  bool open_workload = false;

  // Checkpoint cadence: every `checkpoint_every` completed scheduling cycles
  // Run() writes `<checkpoint_dir>/checkpoint_<cycle>.snap`. 0 disables.
  // These knobs describe the *local* run, not the simulation: a restore
  // keeps the caller's values rather than adopting the snapshot's.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // Stop Run() after this many completed cycles (0 = no limit). The partial
  // result is finalized normally; with checkpointing on this emulates a kill
  // at a known cycle.
  int64_t max_cycles = 0;

  // Digital-twin fork mode (src/twin). A speculative simulator is a
  // restored clone of a live run whose cycles are hypothetical: restore
  // leaves the global metrics registry untouched (the "obs" section is
  // consumed but not applied), InjectJob accepts what-if arrivals even in
  // batch mode, and InjectFaultOverlay is permitted. Like the checkpoint
  // knobs this describes the local run, not the simulation — it is never
  // serialized and restore keeps the caller's value.
  bool speculative = false;
};

// One executed cycle: its simulated time and telemetry.
struct CycleStats : CycleTelemetry {
  Time time = 0.0;
};

struct SimResult {
  std::vector<JobRecord> jobs;
  std::vector<CycleStats> cycles;
  int rejected_placements = 0;  // Scheduler decisions that did not fit.
  int total_preemptions = 0;
  Time end_time = 0.0;

  // Fault-injection observability (all zero when chaos is off).
  int tasks_killed_by_faults = 0;  // Gang runs killed by crashes/injected kills.
  int fault_node_events = 0;       // Node down/up events applied.
  int stalled_cycles = 0;          // Scheduling cycles lost to injected stalls.
  // Node-seconds of work lost to fault kills (the killed runs' elapsed
  // occupancy, which must be redone).
  double rework_node_seconds = 0.0;
  // Fraction of cluster space-time spent with nodes crashed.
  double node_downtime_fraction = 0.0;
  // Cluster space-time actually up: total_nodes * end_time minus crashed
  // node-seconds (the goodput-under-churn denominator).
  double available_node_seconds = 0.0;
  // The node churn events the run actually applied (sampled or replayed, up
  // to the simulation stop) — input for availability reconstruction.
  std::vector<FaultEvent> fault_events;
};

// Everything PeekCheckpoint can tell about a snapshot without a scheduler:
// enough to rebuild a matching Simulator and resume.
struct CheckpointInfo {
  ClusterConfig cluster;
  SimOptions options;
  uint64_t cycles_completed = 0;
  Time now = 0.0;
};

// A job's externally visible status (JobStatus RPC payload).
struct JobStatusInfo {
  JobStatus status = JobStatus::kPending;
  Time submit_time = kNever;
  Time start_time = kNever;
  Time finish_time = kNever;
  int group = -1;
  int preemptions = 0;
  bool arrived = false;  // The arrival event has fired.
};

// Aggregate run state (ClusterState RPC payload).
struct SimStateInfo {
  Time now = 0.0;
  uint64_t cycles_completed = 0;
  int64_t total_jobs = 0;
  int64_t pending_jobs = 0;  // Arrived and waiting to be placed.
  int64_t running_jobs = 0;
  int64_t completed_jobs = 0;
  int64_t abandoned_jobs = 0;
  int total_nodes = 0;
  int available_nodes = 0;  // Not crashed.
  int free_nodes = 0;       // Available and unoccupied.
  bool drained = false;
};

// Extra state a host (e.g. the svc server) appends to every simulator
// snapshot, after the scheduler's sections, so one checkpoint file restarts
// the whole process. Hooks are called inside SaveStateToBuffer /
// TryRestoreStateFromBuffer; implementations open their own named sections.
class SimulatorStateExtension {
 public:
  virtual ~SimulatorStateExtension() = default;
  virtual void SaveState(SnapshotWriter& writer) const = 0;
  virtual void RestoreState(SnapshotReader& reader) = 0;
};

class Simulator {
 public:
  // `scheduler` must outlive Run(). `workload` need not be sorted.
  Simulator(const ClusterConfig& cluster, Scheduler* scheduler, std::vector<JobSpec> workload,
            SimOptions options);
  ~Simulator();

  // Runs to completion (honoring max_cycles / checkpoint_every) and returns
  // the finalized result. Equivalent to: while (Step()) {...}; Finish().
  SimResult Run();

  // Stepwise API (replay_diff drives this cycle-by-cycle). Step() processes
  // events until one scheduling cycle's CycleStats is appended, returning
  // true; false means no cycle can be appended now — permanently in batch
  // mode (the run is drained), or until the next InjectJob in open-workload
  // mode (check drained()).
  bool Step();
  // Finalizes (closes open runs, marks kPending/kRunning jobs kUnfinished,
  // computes downtime aggregates) and returns the result. The simulator is
  // spent afterwards.
  SimResult Finish();

  // Scheduling cycles recorded so far == result.cycles.size().
  uint64_t cycles_completed() const;

  // --- Open-workload (online service) API ----------------------------------
  // All of these require options.open_workload (except the read-only
  // accessors, which work in either mode).

  // Admits a job into the running simulation. The submit time is clamped to
  // the current sim time (arrivals cannot land in the past). Returns false
  // with `*error` set on a duplicate id, an oversized gang, closed
  // submissions, or batch mode.
  bool InjectJob(JobSpec spec, std::string* error = nullptr);
  // No further InjectJob calls will be accepted; the run drains and stops
  // like a batch run (hard stop = max(now, last arrival + drain_limit)).
  void CloseSubmissions();
  // Withdraws a pending (never-started) job. Running, finished, or unknown
  // jobs are not cancellable. The scheduler is notified only if the job's
  // arrival was already delivered.
  bool CancelJob(JobId id, std::string* error = nullptr);

  // Speculative-only (options.speculative): appends extra node-churn events
  // to the fork's fault schedule and enqueues the ones still in the future.
  // Events at or before the current sim time are rejected. Scenario overlays
  // use this to ask "what if `count` nodes of `group` crashed at time t?".
  bool InjectFaultOverlay(const std::vector<FaultEvent>& events, std::string* error = nullptr);

  // Read-only accessors (valid in both modes).
  bool QueryJob(JobId id, JobStatusInfo* info);
  // Visits every job record, arrival-event index order (batch workload
  // first, then injections). Scenario surge overlays sample the specs.
  void ForEachJob(const std::function<void(const JobRecord&)>& visit);
  SimStateInfo StateNow();
  Time now();
  bool drained();

  // Host state piggybacked on checkpoints (svc server admission queue /
  // token table). Must be set before SaveStateToBuffer / restore so the
  // extension sections round-trip. Not owned; may be null.
  void SetStateExtension(SimulatorStateExtension* extension) { extension_ = extension; }

  // --- Checkpoint / restore -------------------------------------------------
  // The snapshot serializes the complete run state by module section:
  //   meta, rng, faults, sim, metrics, timing, obs, sched [, predict] [, host]
  // ("timing" carries the wall-clock per-cycle solver/cycle seconds so every
  // other section is bit-deterministic and diffable). Each job's spec and
  // run state is persisted once, in the "sim" section's job records.
  std::string SaveStateToBuffer();
  bool WriteCheckpoint(const std::string& path, std::string* error = nullptr);

  // Restores a full run state into this simulator. The scheduler (and its
  // predictor) must be configured identically to the checkpointing run; the
  // snapshot's SimOptions are adopted except the local-run knobs
  // (checkpoint_every / checkpoint_dir / max_cycles), and the cluster shape
  // is validated against cluster_. Try* returns false with `*error` set and
  // this simulator untouched; the scheduler (then Scheduler::OnJobsRestored)
  // and the extension restore in place, so a caller discards them on false.
  // The unchecked form TS_CHECK-aborts on a bad snapshot.
  bool TryRestoreStateFromBuffer(const std::string& buffer, std::string* error = nullptr);
  bool TryResumeFrom(const std::string& path, std::string* error = nullptr);
  void RestoreStateFromBuffer(const std::string& buffer);

  // Reads a snapshot's "meta" section only (no scheduler needed): the
  // cluster, options, and position a resuming caller must match.
  static bool PeekCheckpoint(const std::string& path, CheckpointInfo* info,
                             std::string* error = nullptr);

  // Test/diagnostic hook: burns one RNG draw, desynchronizing this run from
  // an otherwise identical one (replay_diff's injected-divergence mode).
  void DebugPerturbRng();

 private:
  struct RunState;

  void EnsureStarted();
  bool ProcessEvent();  // One event; true if it appended a CycleStats.
  // Restore-time consistency checks of a walked state against this
  // simulator's cluster; latches `reader`'s failure instead of letting a
  // CRC-valid but inconsistent snapshot abort a later Step().
  void CheckRestoredState(const RunState& s, SnapshotReader* reader) const;
  void MaybeCheckpoint();

  const ClusterConfig& cluster_;
  Scheduler* scheduler_;
  std::vector<JobSpec> workload_;  // Constructor input; EnsureStarted consumes it.
  SimOptions options_;
  SimulatorStateExtension* extension_ = nullptr;
  std::unique_ptr<RunState> state_;
};

}  // namespace threesigma

#endif  // SRC_SIM_SIMULATOR_H_
