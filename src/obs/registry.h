// Process-wide metrics registry: a fixed schema of named counters.
//
// This is the unified counter plumbing for the whole stack (simulator event
// loop, the per-cycle scheduler record including the solver's LP work, fault
// delivery, predictor traffic, the digital twin and the scheduling service).
// Every counter is declared once, in THREESIGMA_REGISTRY_COUNTERS below, as
// THREESIGMA_COUNTER(member, "name"). The list generates obs::Counters (one
// member per counter) and kCounterSchema (its name/member table, in list
// order); call sites name the member:
//
//   obs::Metrics().sim_events.Increment();
//
// The sched.<field> entries come from the per-cycle record's count fields
// (src/obs/cycle_telemetry.h), so a new per-cycle counter needs no line here.
// Any other new counter is one line in the list plus its increment.
//
// Concurrency and determinism. The scheduler loop is the one writer: the
// only other threads are the digital twin's what-if workers, and
// SpeculativeScope drops their writes. Each counter is one relaxed 64-bit
// atomic, so a write never takes a lock and, should threads ever add at
// once, the total is still exactly the single-threaded total. The schema is
// fixed at compile time, so nothing registers, allocates or locks at run
// time.
//
// Snapshot-awareness. SaveState writes every value in list order behind the
// list's size; ReadState rejects a payload of any other size, and ApplyState
// Set()s the absolute values, so a resumed run continues its counters from
// the checkpoint instead of restarting at zero (see the "obs" section in
// src/sim/simulator.cc and the resume-continuation test in
// tests/obs_property_test.cc). The payload carries no names, so a restore
// can never add one. The list order is the payload's byte order: any change
// to the list needs a kSnapshotVersion bump (a static_assert in
// simulator.cc enforces it).

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/cycle_telemetry.h"
#include "src/obs/speculative.h"

// Every registry counter, in snapshot order. Levels (the Max per-cycle
// fields, svc.admission_queue_depth) are counters that hold a value set in
// place rather than a running total.
#define THREESIGMA_REGISTRY_COUNTERS                                              \
  /* Simulator event loop. */                                                     \
  THREESIGMA_COUNTER(sim_events, "sim.events")                                    \
  THREESIGMA_COUNTER(sim_arrivals, "sim.arrivals")                                \
  THREESIGMA_COUNTER(sim_completions, "sim.completions")                          \
  THREESIGMA_COUNTER(sim_node_fault_events, "sim.node_fault_events")             \
  THREESIGMA_COUNTER(sim_task_kill_events, "sim.task_kill_events")                \
  THREESIGMA_COUNTER(sim_cycles, "sim.cycles")                                    \
  THREESIGMA_COUNTER(sim_stalled_cycles, "sim.stalled_cycles")                    \
  THREESIGMA_COUNTER(sim_fault_job_kills, "sim.fault_job_kills")                  \
  THREESIGMA_COUNTER(sim_preemptions, "sim.preemptions")                          \
  THREESIGMA_COUNTER(sim_rejected_placements, "sim.rejected_placements")          \
  /* Per executed cycle: every count field of the per-cycle record, then the */   \
  /* decision sizes. */                                                           \
  THREESIGMA_CYCLE_TELEMETRY(THREESIGMA_SCHED_COUNTER)                            \
  THREESIGMA_COUNTER(sched_cycles, "sched.cycles")                                \
  THREESIGMA_COUNTER(sched_starts, "sched.starts")                                \
  THREESIGMA_COUNTER(sched_preempt_decisions, "sched.preempt_decisions")          \
  THREESIGMA_COUNTER(sched_abandons, "sched.abandons")                            \
  THREESIGMA_COUNTER(sched_deferred, "sched.deferred")                            \
  /* Predictor traffic. */                                                        \
  THREESIGMA_COUNTER(predict_predictions, "predict.predictions")                  \
  THREESIGMA_COUNTER(predict_cold_starts, "predict.cold_starts")                  \
  THREESIGMA_COUNTER(predict_recordings, "predict.recordings")                    \
  /* Fault draws that fired. */                                                   \
  THREESIGMA_COUNTER(faults_task_kill_draws, "faults.task_kill_draws")            \
  THREESIGMA_COUNTER(faults_straggler_draws, "faults.straggler_draws")            \
  THREESIGMA_COUNTER(faults_cycle_stall_draws, "faults.cycle_stall_draws")        \
  /* Digital-twin sweeps. */                                                      \
  THREESIGMA_COUNTER(twin_sweeps, "twin.sweeps")                                  \
  THREESIGMA_COUNTER(twin_forks, "twin.forks")                                    \
  THREESIGMA_COUNTER(twin_speculative_cycles, "twin.speculative_cycles")          \
  THREESIGMA_COUNTER(twin_recommendations, "twin.recommendations")                \
  THREESIGMA_COUNTER(twin_applied, "twin.applied")                                \
  /* Scheduling service: requests per verb, then admission. */                    \
  THREESIGMA_COUNTER(svc_rpc_submit_job, "svc.rpc.submit_job")                    \
  THREESIGMA_COUNTER(svc_rpc_job_status, "svc.rpc.job_status")                    \
  THREESIGMA_COUNTER(svc_rpc_cancel_job, "svc.rpc.cancel_job")                    \
  THREESIGMA_COUNTER(svc_rpc_cluster_state, "svc.rpc.cluster_state")              \
  THREESIGMA_COUNTER(svc_rpc_metrics_dump, "svc.rpc.metrics_dump")                \
  THREESIGMA_COUNTER(svc_rpc_trigger_checkpoint, "svc.rpc.trigger_checkpoint")    \
  THREESIGMA_COUNTER(svc_rpc_shutdown, "svc.rpc.shutdown")                        \
  THREESIGMA_COUNTER(svc_rpc_whatif, "svc.rpc.whatif")                            \
  THREESIGMA_COUNTER(svc_rpc_advisor_status, "svc.rpc.advisor_status")            \
  THREESIGMA_COUNTER(svc_malformed_frames, "svc.malformed_frames")                \
  THREESIGMA_COUNTER(svc_retry_later, "svc.retry_later")                          \
  THREESIGMA_COUNTER(svc_admitted, "svc.admitted")                                \
  THREESIGMA_COUNTER(svc_injected, "svc.injected")                                \
  THREESIGMA_COUNTER(svc_duplicate_tokens, "svc.duplicate_tokens")                \
  THREESIGMA_COUNTER(svc_admission_queue_depth, "svc.admission_queue_depth")      \
  /* New counters go above this line. */

// sched.<name> for a per-cycle count field; wall-clock fields stay out.
#define THREESIGMA_SCHED_COUNTER(type, name, rollup) THREESIGMA_IF_COUNT_##rollup(name)
#define THREESIGMA_IF_COUNT_Sum(name) THREESIGMA_COUNTER(sched_##name, "sched." #name)
#define THREESIGMA_IF_COUNT_Max(name) THREESIGMA_COUNTER(sched_##name, "sched." #name)
#define THREESIGMA_IF_COUNT_WallClock(name)

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

namespace obs {

class Counter {
 public:
  void Add(int64_t delta) {
    if (!SpeculativeSuppressed()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }
  // High-water mark: raises the value to `value` if that is larger. Not
  // safe against concurrent writers (it reads, then sets); the simulation
  // thread calls it once per cycle.
  void RaiseTo(int64_t value) {
    if (!SpeculativeSuppressed() && value > Value()) {
      Set(value);
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // Replaces the value: a level's current value, or a snapshot restore.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

struct Counters {
#define THREESIGMA_COUNTER(member, name) Counter member;
  THREESIGMA_REGISTRY_COUNTERS
#undef THREESIGMA_COUNTER
};

struct CounterSchemaEntry {
  const char* name;
  Counter Counters::*member;
};

inline constexpr CounterSchemaEntry kCounterSchema[] = {
#define THREESIGMA_COUNTER(member, name) {name, &Counters::member},
    THREESIGMA_REGISTRY_COUNTERS
#undef THREESIGMA_COUNTER
};

inline constexpr size_t kNumCounters = std::size(kCounterSchema);

// The registry's persisted form: every counter's value, in list order.
struct RegistryImage {
  std::vector<int64_t> values;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global() {
    static constinit MetricsRegistry registry;
    return registry;
  }

  Counters& counters() { return counters_; }

  // The counter declared as `name`, or nullptr if the schema declares none.
  Counter* GetCounter(const std::string& name);

  // Zeroes every counter (tests and fresh-run scoping).
  void Reset();

  // Deterministic text dump of every counter, sorted by name.
  void WriteText(std::ostream& os) const;

  // Snapshot payload (no section framing; the caller owns the section).
  // Restore runs in two steps, so a caller can stage the payload and apply
  // it only once the rest of its restore has succeeded: ReadState reads it
  // without touching any registry (and fails the reader unless it holds
  // exactly kNumCounters values), and ApplyState Set()s the absolute values.
  void SaveState(SnapshotWriter& writer) const;
  static RegistryImage ReadState(SnapshotReader& reader);
  void ApplyState(const RegistryImage& image);

  // Point-in-time value of every counter, sorted by name.
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;

 private:
  constexpr MetricsRegistry() = default;

  Counters counters_;
};

// The process-wide counters.
inline Counters& Metrics() { return MetricsRegistry::Global().counters(); }

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_REGISTRY_H_
