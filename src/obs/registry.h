// Process-wide metrics registry: named counters and gauges.
//
// This is the unified counter plumbing for the whole stack (simulator event
// loop, the per-cycle scheduler record including the solver's LP work, fault
// delivery, predictor traffic). Handles are stable pointers obtained once
// (typically at module init or construction) and incremented on the hot path:
//
//   static obs::Counter* const kEvents =
//       obs::MetricsRegistry::Global().GetCounter("sim.events");
//   kEvents->Increment();
//
// Concurrency and determinism. The scheduler loop is the one writer: the
// only other threads are the digital twin's what-if workers, and
// SpeculativeScope drops their writes. Each counter is one relaxed 64-bit
// atomic, so a write never takes a lock and, should threads ever add at
// once, the total is still exactly the single-threaded total. Gauges are
// last-write-wins doubles. The registry's maps stay behind a mutex, because
// a function-local counter static registers on first execution, whichever
// thread that is.
//
// Snapshot-awareness. SaveState/ReadState/ApplyState serialize every
// metric's value through the snapshot codec; restore is *absolute* (Set), so
// a resumed run continues its counters from the checkpoint instead of
// restarting at zero (see the "obs" section in src/sim/simulator.cc and the
// resume-continuation test in tests/obs_property_test.cc).

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/speculative.h"

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
  // Replaces the value (snapshot restore).
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Reset() { Set(0); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

// Last-write-wins double. Intended for values set from deterministic code
// (e.g. the driver thread publishing a cache hit rate once per cycle).
class Gauge {
 public:
  void Set(double value);
  double Value() const;
  void Reset() { Set(0.0); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> bits_{0};
};

// The registry's persisted form: every metric's value, in name order.
struct RegistryImage {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Get-or-create. Returned pointers are stable for the registry's lifetime
  // (metrics are never deleted); hold them instead of re-looking-up on the
  // hot path.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  // Zeroes every registered metric (tests and fresh-run scoping).
  void Reset();

  // Deterministic text dump (sorted by name; counters, then gauges).
  void WriteText(std::ostream& os) const;

  // Snapshot payload (no section framing; the caller owns the section).
  // Restore runs in two steps, so a caller can stage the payload and apply
  // it only once the rest of its restore has succeeded: ReadState reads it
  // without touching any registry, and ApplyState Set()s the absolute
  // values, creating metrics as needed.
  void SaveState(SnapshotWriter& writer) const;
  static RegistryImage ReadState(SnapshotReader& reader);
  void ApplyState(const RegistryImage& image);

  // Point-in-time aggregate of every counter, sorted by name (tests).
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  // Guards the maps only; metric ops are lock-free.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_REGISTRY_H_
