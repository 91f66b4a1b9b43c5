// Deterministic fault injection: node churn, task kills, stragglers, and
// scheduler-cycle stalls.
//
// 3Sigma's thesis is scheduling under runtime uncertainty, and the clusters
// the paper targets (Google 2011, Mustang) lose nodes and restart tasks
// constantly — a restarted job is exactly the likely-mis-estimated job the
// adaptive mis-estimate handling (§4.2) exists for. This module turns the
// simulator into a chaos harness while keeping traces byte-reproducible:
//
//   - Node churn events (crash/repair) are *pre-materialized* from per-node
//     exponential MTTF/MTTR renewal processes at schedule-build time, so the
//     event list is a pure function of (cluster shape, options, seed) and
//     never depends on simulation dynamics or solver thread count.
//   - Per-run decisions (task kill, straggler inflation) and per-cycle
//     decisions (scheduler stall) are *pure hash draws* keyed on
//     (seed, job id, attempt) / (seed, cycle ordinal) — no shared RNG stream
//     whose consumption order could vary between runs.
//
// An explicit event list (Replay) reproduces a recorded incident exactly.
// A default-constructed schedule is empty: chaos off is a strict no-op.

#ifndef SRC_FAULTS_FAULT_SCHEDULE_H_
#define SRC_FAULTS_FAULT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/units.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

enum class FaultKind {
  kNodeDown,  // `count` nodes of `group` crash (capacity shrinks).
  kNodeUp,    // `count` nodes of `group` finish repair (capacity returns).
};

struct FaultEvent {
  Time time = 0.0;
  FaultKind kind = FaultKind::kNodeDown;
  int group = 0;
  int count = 1;  // Nodes affected.
};

struct FaultOptions {
  // Per-node mean time to failure / to repair (exponential renewal process).
  // node_mttf == 0 disables node churn entirely.
  Duration node_mttf = 0.0;
  Duration node_mttr = 600.0;

  // Probability that a task gang's run is killed mid-flight (per start
  // attempt; the kill lands at a uniform fraction of the run's duration).
  double task_kill_prob = 0.0;

  // Probability that a run straggles, and the inflation cap: a straggling
  // run's duration is multiplied by ~U(1, straggler_factor).
  double straggler_prob = 0.0;
  double straggler_factor = 3.0;

  // Probability that a scheduling cycle is lost to a stalled scheduler
  // process, and how long the stall lasts before the next cycle can run.
  double cycle_stall_prob = 0.0;
  Duration cycle_stall = 30.0;

  // Seed for the fault processes; independent of the simulator seed so the
  // same workload noise can be replayed under different chaos.
  uint64_t seed = 1;

  // True when any fault process is configured.
  bool any() const {
    return node_mttf > 0.0 || task_kill_prob > 0.0 || straggler_prob > 0.0 ||
           cycle_stall_prob > 0.0;
  }
};

// Snapshot layouts (see src/snapshot/snapshot_io.h), shared by every
// section that carries fault options or events.
template <typename Io, typename Options>
void WalkFaultOptions(Io& io, Options& o) {
  io.Double(o.node_mttf);
  io.Double(o.node_mttr);
  io.Double(o.task_kill_prob);
  io.Double(o.straggler_prob);
  io.Double(o.straggler_factor);
  io.Double(o.cycle_stall_prob);
  io.Double(o.cycle_stall);
  io.Fixed64(o.seed);
}

template <typename Io, typename Events>
void WalkFaultEvents(Io& io, Events& events) {
  io.Seq(events, [&](auto& e) {
    io.Double(e.time);
    io.Enum(e.kind, FaultKind::kNodeUp);
    io.VarInt(e.group);
    io.VarInt(e.count);
  }, 8);
}

class FaultSchedule {
 public:
  // Empty schedule: no events, every probabilistic draw declines.
  FaultSchedule() = default;

  // Pre-materializes node churn over [0, horizon] from per-node exponential
  // MTTF/MTTR renewal processes. Deterministic in (cluster, options.seed).
  static FaultSchedule Sample(const ClusterConfig& cluster, const FaultOptions& options,
                              Time horizon);

  // Exact replay of an explicit event list (sorted by time internally).
  // `options` still governs the hash-draw processes (kills/stragglers/stalls).
  static FaultSchedule Replay(std::vector<FaultEvent> events, const FaultOptions& options = {});

  // True when the schedule can never perturb a simulation.
  bool empty() const { return node_events_.empty() && !options_.any(); }

  // Node churn events, sorted by (time, group, kind).
  const std::vector<FaultEvent>& node_events() const { return node_events_; }
  const FaultOptions& options() const { return options_; }

  // Appends overlay events (what-if perturbations) WITHOUT re-sorting: the
  // simulator's pending kNodeFault queue entries index into node_events() by
  // position, so the existing prefix must stay put. Returns the index of the
  // first appended event so the caller can enqueue exactly the new ones.
  size_t AppendEvents(const std::vector<FaultEvent>& events) {
    const size_t first = node_events_.size();
    node_events_.insert(node_events_.end(), events.begin(), events.end());
    return first;
  }

  // Deterministic per-(job, attempt) draw: true if this run attempt is killed
  // by a fault, with `*kill_fraction` in (0, 1) — the fraction of the run's
  // duration after which the kill lands.
  bool TaskKill(int64_t job, int attempt, double* kill_fraction) const;

  // Deterministic per-(job, attempt) runtime inflation: 1.0 for healthy runs,
  // ~U(1, straggler_factor) for stragglers.
  double StragglerMultiplier(int64_t job, int attempt) const;

  // Deterministic per-cycle draw: true if scheduling cycle `ordinal` is lost
  // to a stalled scheduler; `*stall` is how long the stall lasts.
  bool CycleStall(int64_t ordinal, Duration* stall) const;

  // Snapshot codec hooks: raw payload (options + materialized event list),
  // composable into a parent section. Hash draws carry no stream state, so
  // the schedule restores verbatim with no "position" beyond the caller's
  // cycle ordinal.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  FaultOptions options_;
  std::vector<FaultEvent> node_events_;
};

// Per-group step function of available (non-crashed) nodes implied by a
// fault schedule; the ground truth the capacity-conservation property checks
// simulated occupancy against.
class AvailabilityTimeline {
 public:
  AvailabilityTimeline(const ClusterConfig& cluster, const std::vector<FaultEvent>& events);

  // Available nodes of `group` at time `t` (after applying every event with
  // event.time <= t). Never negative, never above the group's node_count.
  int AvailableAt(int group, Time t) const;

  // Integral of (nominal - available) over [0, end] across all groups, in
  // node-seconds: the denominator-ready downtime measure.
  double DowntimeNodeSeconds(Time end) const;

 private:
  struct Step {
    Time time;
    int available;
  };
  std::vector<std::vector<Step>> steps_;  // Per group, sorted by time.
  std::vector<int> nominal_;
};

}  // namespace threesigma

#endif  // SRC_FAULTS_FAULT_SCHEDULE_H_
