// Speculative-execution suppression for the observability subsystem.
//
// The digital-twin engine (src/twin) steps forked Simulator clones through
// speculative cycles while a live run is parked at a cycle boundary. Those
// clones execute the exact same instrumented code paths as the live run —
// SimCounters increments, TS_OBS_SPAN brackets, CycleProfiler phase rows,
// DecisionLog records — and all of that plumbing is process-global. Without a
// gate, every speculative cycle would pollute the live run's metrics registry
// and decision CSV, breaking the twin's read-only contract (and the
// byte-identity acceptance test that rides on it).
//
// SpeculativeScope raises a process-wide suppression depth for its lifetime;
// while the depth is nonzero, Tracer/CycleProfiler/DecisionLog::enabled()
// report false and Counter/Gauge writes drop on the floor. The depth is one
// process-wide atomic, not a per-thread flag, on purpose: the what-if engine
// steps its forks on its fan-out ThreadPool's worker threads, and those
// threads must be suppressed too. This is sound because speculation only ever runs while
// the live driver is idle at a cycle boundary (the serve loop is a
// single-threaded event loop), so there is no concurrent live instrumentation
// to accidentally silence. The depth counter nests, so an advisory sweep can
// wrap individual scenario steps without bookkeeping.

#ifndef SRC_OBS_SPECULATIVE_H_
#define SRC_OBS_SPECULATIVE_H_

#include <atomic>

namespace threesigma {
namespace obs {

namespace internal {
inline std::atomic<int> speculative_depth{0};
}  // namespace internal

// True while at least one SpeculativeScope is alive anywhere in the process.
inline bool SpeculativeSuppressed() {
  return internal::speculative_depth.load(std::memory_order_relaxed) != 0;
}

// RAII guard: all observability output is suppressed while any instance
// lives. Nests; not tied to the constructing thread.
class SpeculativeScope {
 public:
  SpeculativeScope() { internal::speculative_depth.fetch_add(1, std::memory_order_relaxed); }
  ~SpeculativeScope() { internal::speculative_depth.fetch_sub(1, std::memory_order_relaxed); }

  SpeculativeScope(const SpeculativeScope&) = delete;
  SpeculativeScope& operator=(const SpeculativeScope&) = delete;
};

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_SPECULATIVE_H_
