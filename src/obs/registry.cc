#include "src/obs/registry.h"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace obs {

int ThreadStripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe = next.fetch_add(1, std::memory_order_relaxed) &
                                  (kMetricStripes - 1);
  return stripe;
}

int64_t Counter::Value() const {
  int64_t total = base_.load(std::memory_order_relaxed);
  for (const Cell& cell : cells_) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Set(int64_t value) {
  for (Cell& cell : cells_) {
    cell.v.store(0, std::memory_order_relaxed);
  }
  base_.store(value, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  if (SpeculativeSuppressed()) {
    return;
  }
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
}

double Gauge::Value() const {
  const uint64_t bits = bits_.load(std::memory_order_relaxed);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Histogram::Histogram(std::string name, std::vector<double> edges)
    : name_(std::move(name)), edges_(std::move(edges)) {
  TS_CHECK_MSG(!edges_.empty(), "histogram " << name_ << " needs at least one bucket edge");
  TS_CHECK_MSG(std::is_sorted(edges_.begin(), edges_.end()),
               "histogram " << name_ << " edges must be sorted");
  const size_t buckets = edges_.size() + 1;
  for (Cell& cell : cells_) {
    cell.buckets = std::vector<std::atomic<int64_t>>(buckets);
  }
  base_ = std::vector<std::atomic<int64_t>>(buckets);
}

void Histogram::Observe(double value) {
  if (SpeculativeSuppressed()) {
    return;
  }
  // Inclusive upper bounds: bucket b is the first edge >= value, the
  // overflow bucket everything beyond the last edge.
  const size_t b = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) - edges_.begin());
  cells_[static_cast<size_t>(ThreadStripe())].buckets[b].fetch_add(
      1, std::memory_order_relaxed);
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (size_t b = 0; b < base_.size(); ++b) {
    total += base_[b].load(std::memory_order_relaxed);
    for (const Cell& cell : cells_) {
      total += cell.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(base_.size(), 0);
  for (size_t b = 0; b < base_.size(); ++b) {
    out[b] = base_[b].load(std::memory_order_relaxed);
    for (const Cell& cell : cells_) {
      out[b] += cell.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::Reset() {
  for (size_t b = 0; b < base_.size(); ++b) {
    base_[b].store(0, std::memory_order_relaxed);
    for (Cell& cell : cells_) {
      cell.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name))).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& edges) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(name, edges)))
             .first;
  } else {
    TS_CHECK_MSG(it->second->edges() == edges,
                 "histogram " << name << " re-registered with different bucket edges");
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

void MetricsRegistry::WriteText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    os << "counter " << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << "gauge " << name << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    os << "histogram " << name << " total " << histogram->TotalCount() << " buckets";
    const std::vector<int64_t> counts = histogram->BucketCounts();
    for (size_t b = 0; b < counts.size(); ++b) {
      os << " " << counts[b];
    }
    os << "\n";
  }
}

namespace {

template <typename Io, typename Image>
void WalkImage(Io& io, Image& image) {
  io.Seq(image.counters, [&](auto& c) {
    io.String(c.first);
    io.VarInt(c.second);
  });
  io.Seq(image.gauges, [&](auto& g) {
    io.String(g.first);
    io.Double(g.second);
  });
  io.Seq(image.histograms, [&](auto& h) {
    io.String(h.name);
    io.Seq(h.edges, [&](auto& e) { io.Double(e); }, sizeof(double));
    io.Seq(h.counts, [&](auto& c) { io.VarInt(c); });
  });
}

}  // namespace

void MetricsRegistry::SaveState(SnapshotWriter& writer) const {
  RegistryImage image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      image.counters.emplace_back(name, counter->Value());
    }
    for (const auto& [name, gauge] : gauges_) {
      image.gauges.emplace_back(name, gauge->Value());
    }
    for (const auto& [name, histogram] : histograms_) {
      image.histograms.push_back({name, histogram->edges(), histogram->BucketCounts()});
    }
  }
  WalkImage(writer, image);
}

RegistryImage MetricsRegistry::ReadState(SnapshotReader& reader) const {
  RegistryImage image;
  WalkImage(reader, image);
  // GetHistogram aborts on edges that differ from a registered histogram's,
  // and the Histogram constructor on empty or unsorted edges.
  std::lock_guard<std::mutex> lock(mu_);
  const std::string* previous = nullptr;
  for (const RegistryImage::HistogramImage& h : image.histograms) {
    const auto it = histograms_.find(h.name);
    if (h.edges.empty() || !std::is_sorted(h.edges.begin(), h.edges.end()) ||
        (it != histograms_.end() && it->second->edges() != h.edges) ||
        (previous != nullptr && h.name <= *previous)) {
      reader.Fail("histogram " + h.name + " does not match this registry");
      break;
    }
    previous = &h.name;
  }
  return image;
}

void MetricsRegistry::ApplyState(const RegistryImage& image) {
  for (const auto& [name, value] : image.counters) {
    GetCounter(name)->Set(value);
  }
  for (const auto& [name, value] : image.gauges) {
    GetGauge(name)->Set(value);
  }
  for (const RegistryImage::HistogramImage& h : image.histograms) {
    Histogram* histogram = GetHistogram(h.name, h.edges);
    histogram->Reset();
    // Restore is absolute: install the saved counts as the base so further
    // observations continue from the checkpoint totals.
    for (size_t b = 0; b < h.counts.size() && b < histogram->base_.size(); ++b) {
      histogram->base_[b].store(h.counts[b], std::memory_order_relaxed);
    }
  }
}

void MetricsRegistry::RestoreState(SnapshotReader& reader) {
  const RegistryImage image = ReadState(reader);
  if (reader.ok()) {
    ApplyState(image);
  }
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

}  // namespace obs
}  // namespace threesigma
