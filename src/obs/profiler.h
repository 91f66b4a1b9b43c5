// Cycle profiler and decision log.
//
// CycleProfiler turns the span stream into a per-cycle phase-latency table:
// one row per scheduling cycle with wall-clock seconds spent in each Phase
// (src/obs/trace.h). The simulator brackets each cycle with BeginCycle /
// EndCycle; phase spans landing in between accumulate into the open row.
// Phase time spent *between* cycles (event processing, fault delivery,
// predictor calls on arrival) accumulates into a pending row that folds into
// the next BeginCycle, so nothing is lost.
//
// EndCycle stamps the row with the cycle's telemetry (cycle_telemetry.h), so
// the phase CSV carries every per-cycle counter next to the phase times. Its
// `cycle_seconds` is the scheduler-reported full-cycle latency;
// `sched_phase_seconds()` sums the six scheduler pipeline phases, which are
// disjoint sub-intervals of the cycle, so the two agree to within the
// unwrapped slivers between scopes (the golden acceptance check in tests and
// EXPERIMENTS.md).
//
// DecisionLog captures the *decisions* of every cycle (starts, preemptions,
// abandonments, deferrals) in a deterministic CSV — the golden-trace
// regression harness diffs this against committed goldens.
//
// Both are driver-thread facilities behind a one-branch enabled() gate;
// enabling them must not (and does not) perturb any scheduling decision.

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/cycle_telemetry.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace obs {

struct CyclePhaseRow : CycleTelemetry {
  int64_t cycle = 0;
  double sim_time = 0.0;
  std::array<double, static_cast<size_t>(Phase::kCount)> phase_seconds{};
  // Wall time spent in digital-twin advisory sweeps between the previous
  // cycle and this one (zero when the twin is off).
  double twin_sweep_seconds = 0.0;

  // Sum of the six disjoint scheduler pipeline phases (capacity..placement).
  double sched_phase_seconds() const {
    double total = 0.0;
    for (size_t p = 0; p <= static_cast<size_t>(Phase::kPlacement); ++p) {
      total += phase_seconds[p];
    }
    return total;
  }
};

class CycleProfiler {
 public:
  static CycleProfiler& Global();

  // Reads false under speculative (digital twin) execution so forked runs
  // never append phase rows to the live profiler.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed) && !SpeculativeSuppressed();
  }
  void SetEnabled(bool enabled);

  void BeginCycle(int64_t cycle, double sim_time);
  // Called by Span::End for phase-tagged spans (driver thread only).
  void AddPhase(Phase phase, double seconds);
  // Digital-twin sweep wall time; folded into the next cycle's row like
  // inter-cycle phase time (driver thread only).
  void AddTwinSweep(double seconds);
  // Closes the open row with the cycle's telemetry; no-op without one.
  void EndCycle(const CycleTelemetry& telemetry);

  const std::vector<CyclePhaseRow>& rows() const { return rows_; }
  void WriteCsv(std::ostream& os) const;
  void Clear();

 private:
  CycleProfiler() = default;

  static std::atomic<bool> enabled_;

  std::vector<CyclePhaseRow> rows_;
  CyclePhaseRow current_;
  bool cycle_open_ = false;
  // Phase time observed outside any open cycle; folded into the next row.
  std::array<double, static_cast<size_t>(Phase::kCount)> pending_{};
  double pending_twin_ = 0.0;
};

// One cycle's executed decisions, in deterministic content (no wall clock).
struct DecisionRecord {
  int64_t cycle = 0;
  double sim_time = 0.0;
  int pending = 0;
  int running = 0;
  std::vector<std::pair<int64_t, int>> starts;  // (job, group), cycle order.
  std::vector<int64_t> preempts;
  std::vector<int64_t> abandons;
  std::vector<std::pair<int64_t, int>> deferred;  // (job, group).
};

class DecisionLog {
 public:
  static DecisionLog& Global();

  // Also gated off under speculative execution (see src/obs/speculative.h):
  // twin cycles must never reach the live decision CSV.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed) && !SpeculativeSuppressed();
  }
  void SetEnabled(bool enabled);

  void Record(DecisionRecord record);

  const std::vector<DecisionRecord>& records() const { return records_; }
  // Deterministic per-cycle decision CSV:
  //   cycle,sim_time,pending,running,starts,preempts,abandons,deferred
  // with list cells like "12@0;17@2" (job@group, ';'-separated).
  void WriteCsv(std::ostream& os) const;
  std::string ToCsvString() const;
  void Clear();

 private:
  DecisionLog() = default;

  static std::atomic<bool> enabled_;

  std::vector<DecisionRecord> records_;
};

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_PROFILER_H_
