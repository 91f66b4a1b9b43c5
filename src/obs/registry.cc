#include "src/obs/registry.h"

#include <cstring>
#include <ostream>

#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace obs {

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

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
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
  }
  WalkImage(writer, image);
}

RegistryImage MetricsRegistry::ReadState(SnapshotReader& reader) {
  RegistryImage image;
  WalkImage(reader, image);
  return image;
}

void MetricsRegistry::ApplyState(const RegistryImage& image) {
  for (const auto& [name, value] : image.counters) {
    GetCounter(name)->Set(value);
  }
  for (const auto& [name, value] : image.gauges) {
    GetGauge(name)->Set(value);
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
