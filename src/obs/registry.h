// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with lock-free striped cells.
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
// Concurrency and determinism. Each metric owns a small fixed array of
// cache-line-padded atomic cells; a thread picks its cell by a thread-local
// stripe index, so concurrent increments never contend on one cache line and
// never take a lock. Reads sum the cells. Counter and histogram cells are
// 64-bit integers, so the aggregate is exactly the single-threaded total
// regardless of how increments interleaved across threads — the property
// tests rely on this. Gauges are last-write-wins doubles and should be set
// from deterministic (single-threaded) code.
//
// Snapshot-awareness. SaveState/RestoreState serialize every metric's
// aggregate through the snapshot codec; restore is *absolute* (Set), so a
// resumed run continues its counters from the checkpoint instead of
// restarting at zero (see the "obs" section in src/sim/simulator.cc and the
// resume-continuation test in tests/obs_property_test.cc).

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <array>
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

// Stripe count for per-metric cells (power of two). 16 stripes cover far
// more concurrency than the solver pool ever runs while keeping reads cheap.
inline constexpr int kMetricStripes = 16;

// Stable per-thread stripe index in [0, kMetricStripes).
int ThreadStripe();

class Counter {
 public:
  void Add(int64_t delta) {
    if (SpeculativeSuppressed()) {
      return;
    }
    cells_[static_cast<size_t>(ThreadStripe())].v.fetch_add(delta, std::memory_order_relaxed);
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

  // Aggregate over all stripes plus the restore base.
  int64_t Value() const;
  // Zeroes every stripe and installs `value` as the base (snapshot restore).
  void Set(int64_t value);
  void Reset() { Set(0); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };

  std::string name_;
  std::atomic<int64_t> base_{0};
  std::array<Cell, kMetricStripes> cells_{};
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

// Fixed-bucket histogram: `edges` are the inclusive upper bounds of the
// first N buckets; one overflow bucket catches everything above the last
// edge. Bucket counts are integer and striped, so aggregation is exact.
class Histogram {
 public:
  void Observe(double value);

  int64_t TotalCount() const;
  // Aggregated per-bucket counts, size() == edges().size() + 1.
  std::vector<int64_t> BucketCounts() const;
  const std::vector<double>& edges() const { return edges_; }

  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> edges);

  struct alignas(64) Cell {
    std::vector<std::atomic<int64_t>> buckets;
  };

  std::string name_;
  std::vector<double> edges_;
  std::array<Cell, kMetricStripes> cells_;
  std::vector<std::atomic<int64_t>> base_;
};

// The registry's persisted form: every metric's aggregate, in name order.
struct RegistryImage {
  struct HistogramImage {
    std::string name;
    std::vector<double> edges;
    std::vector<int64_t> counts;
  };
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramImage> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Get-or-create. Returned pointers are stable for the registry's lifetime
  // (metrics are never deleted); hold them instead of re-looking-up on the
  // hot path. GetHistogram with mismatched edges for an existing name is a
  // programming error and aborts.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, const std::vector<double>& edges);

  // Zeroes every registered metric (tests and fresh-run scoping).
  void Reset();

  // Deterministic text dump (sorted by name; counters, gauges, histograms).
  void WriteText(std::ostream& os) const;

  // Snapshot payload (no section framing; the caller owns the section).
  // Restore Set()s absolute values, creating metrics as needed. It runs in
  // two steps, so a caller can stage the payload and apply it only once the
  // rest of its restore has succeeded: ReadState reads and validates it
  // without touching the registry (failing `reader` soft on a histogram the
  // registry cannot take), and ApplyState installs a validated image.
  // RestoreState is the two in a row.
  void SaveState(SnapshotWriter& writer) const;
  RegistryImage ReadState(SnapshotReader& reader) const;
  void ApplyState(const RegistryImage& image);
  void RestoreState(SnapshotReader& reader);

  // Point-in-time aggregate of every counter, sorted by name (tests).
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  // Guards the maps only; metric ops are lock-free.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_REGISTRY_H_
