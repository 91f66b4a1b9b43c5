// Scoped RAII span tracer with one ring buffer.
//
// Spans are stamped with the *simulation clock* (set by the simulator's
// event loop) plus an emission ordinal, so the deterministic part of a trace
// is byte-identical across runs, machines, and what-if thread counts.
// Wall-clock start/duration are recorded too, but quarantined in their own
// export section — exactly the discipline the snapshot format uses for its
// "timing" section — so diffing two traces ignores the only non-reproducible
// state.
//
// Usage (the macro interns the name once per site via a function-local
// static; the span itself is a stack object):
//
//   {
//     TS_OBS_SPAN("sched.solve", threesigma::obs::Phase::kSolve);
//     ... the MILP solve ...
//   }
//
// Cost model. When tracing is disabled the span constructor is a single
// relaxed atomic load and branch; nothing else runs. When enabled, Begin
// reads two clocks and End writes one fixed-size record into the ring,
// allocated on the first span (oldest records are overwritten once the ring
// wraps; `dropped()` counts the overwrites). The scheduler loop is the one
// writer: speculative (digital twin) threads read the gate as disabled.
// Spans tagged with a Phase also feed the cycle profiler
// (src/obs/profiler.h).
//
// Exports:
//   - ExportChromeJson: Chrome trace_event JSON (load via chrome://tracing
//     or https://ui.perfetto.dev). Uses the quarantined wall clock so phase
//     widths are real latencies; sim time and cycle ride along in args.
//   - ExportBinary: "trace_names" + "trace_spans" (deterministic) and
//     "trace_timing" (wall clock) sections through the snapshot codec, so
//     DiffSnapshotSections(a, b, {"trace_timing"}) proves two traces
//     identical up to wall clock.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/speculative.h"

namespace threesigma {

class SnapshotWriter;

namespace obs {

// Pipeline phases the cycle profiler aggregates (src/obs/profiler.h). The
// first six are the scheduler's per-cycle pipeline and are disjoint in time;
// the rest are simulator-side and may nest around them.
enum class Phase : uint8_t {
  kCapacity = 0,   // Eq. 2 conditioning + Eq. 3 expected-capacity charging.
  kSelect,         // Pending selection and abandonment.
  kValuation,      // Eq. 1 option enumeration and valuation.
  kBuild,          // MILP compilation.
  kSolve,          // MILP solve.
  kPlacement,      // Solution extraction into decisions.
  kSimEvents,      // Simulator event processing outside scheduling cycles.
  kFaultDelivery,  // Node fault application and injected kills.
  kPredict,        // Predictor lookups and history recording.
  kOther,          // Trace-only spans; not a profiler phase column.
  kCount,
};

const char* PhaseName(Phase phase);

// An interned span name. Construct once per site (the TS_OBS_SPAN macro uses
// a function-local static); construction registers the name in a global
// table and assigns a dense id in registration order, which is deterministic
// because instrumentation sites execute in deterministic order on the driver
// thread. (A site's static may first run on a what-if worker, so the table
// takes a lock.)
class SpanName {
 public:
  explicit SpanName(const char* name, Phase phase = Phase::kOther);

  uint32_t id() const { return id_; }
  Phase phase() const { return phase_; }

 private:
  uint32_t id_;
  Phase phase_;
};

struct SpanRecord {
  uint32_t name_id = 0;
  uint8_t phase = static_cast<uint8_t>(Phase::kOther);
  uint16_t depth = 0;        // Nesting depth at emission.
  int64_t cycle = -1;        // Profiler cycle ordinal; -1 outside any cycle.
  double sim_time = 0.0;     // Simulation clock at span end.
  uint64_t order = 0;        // Emission ordinal.
  // Quarantined wall clock (never part of the deterministic export).
  double wall_start = 0.0;   // Seconds since the tracer epoch.
  double wall_dur = 0.0;
};

class Tracer {
 public:
  static Tracer& Global();

  // The one-branch gate every span site reads first. Speculative (digital
  // twin) execution reads as disabled so forked runs never emit spans.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed) && !SpeculativeSuppressed();
  }
  void SetEnabled(bool enabled);

  // Ring capacity (records). The ring is allocated at this capacity on the
  // first span after construction or Clear().
  void SetRingCapacity(size_t capacity) { ring_capacity_ = capacity; }

  // Simulation clock and cycle ordinal, maintained by the simulator /
  // profiler on the driver thread.
  void SetSimNow(double now) { sim_now_.store(now, std::memory_order_relaxed); }
  double sim_now() const { return sim_now_.load(std::memory_order_relaxed); }
  void SetCycle(int64_t cycle) { cycle_.store(cycle, std::memory_order_relaxed); }
  int64_t cycle() const { return cycle_.load(std::memory_order_relaxed); }

  // Drops all recorded spans (and the ring) and resets the wall-clock epoch.
  void Clear();

  // All retained spans, oldest first.
  std::vector<SpanRecord> CollectSpans() const;
  // Records overwritten because the ring wrapped.
  uint64_t dropped() const { return dropped_; }

  void ExportChromeJson(std::ostream& os) const;
  void ExportBinary(SnapshotWriter& writer) const;

  // Interned names, indexed by id (copy; the table only grows).
  std::vector<std::pair<std::string, Phase>> names() const;

 private:
  friend class Span;
  friend class SpanName;

  Tracer();
  void Push(const SpanRecord& record);
  uint32_t InternName(const char* name, Phase phase);
  double WallNow() const;  // Seconds since the tracer epoch.

  static std::atomic<bool> enabled_;

  std::atomic<double> sim_now_{0.0};
  std::atomic<int64_t> cycle_{-1};
  size_t ring_capacity_ = 1 << 16;

  mutable std::mutex names_mu_;  // Guards names_.
  std::vector<std::pair<std::string, Phase>> names_;
  int64_t epoch_ns_ = 0;

  // The span ring, written by the scheduler loop only.
  std::vector<SpanRecord> ring_;
  size_t head_ = 0;       // Next write position.
  size_t count_ = 0;      // Records currently retained (<= ring_.size()).
  uint64_t order_ = 0;    // Emission ordinal.
  uint64_t dropped_ = 0;  // Overwritten records.
  uint16_t depth_ = 0;    // Open-span nesting depth.
};

// RAII span. Constructed disabled it does nothing; constructed enabled it
// records wall start on entry and emits a SpanRecord on scope exit (also
// feeding the cycle profiler when the name carries a profiler phase).
class Span {
 public:
  explicit Span(const SpanName& name) {
    if (Tracer::enabled()) {
      Begin(name);
    }
  }
  ~Span() {
    if (begun_) {
      End();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(const SpanName& name);
  void End();

  bool begun_ = false;
  uint32_t name_id_ = 0;
  Phase phase_ = Phase::kOther;
  double wall_start_ = 0.0;
};

#define TS_OBS_CONCAT_INNER(a, b) a##b
#define TS_OBS_CONCAT(a, b) TS_OBS_CONCAT_INNER(a, b)
// One span site: interns the name once, then opens a scoped span.
#define TS_OBS_SPAN(name_literal, phase)                                            \
  static const ::threesigma::obs::SpanName TS_OBS_CONCAT(ts_obs_name_, __LINE__)(   \
      name_literal, phase);                                                         \
  ::threesigma::obs::Span TS_OBS_CONCAT(ts_obs_span_, __LINE__)(                    \
      TS_OBS_CONCAT(ts_obs_name_, __LINE__))

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_TRACE_H_
