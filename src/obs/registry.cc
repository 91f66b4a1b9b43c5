#include "src/obs/registry.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <ostream>
#include <string_view>

#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace obs {

namespace {

// kCounterSchema's indices in name order, for the sorted exports.
constexpr std::array<size_t, kNumCounters> kNameOrder = [] {
  std::array<size_t, kNumCounters> order{};
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [](size_t a, size_t b) {
    return std::string_view(kCounterSchema[a].name) < std::string_view(kCounterSchema[b].name);
  });
  return order;
}();

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  for (const CounterSchemaEntry& entry : kCounterSchema) {
    if (name == entry.name) {
      return &(counters_.*entry.member);
    }
  }
  return nullptr;
}

void MetricsRegistry::Reset() {
  for (const CounterSchemaEntry& entry : kCounterSchema) {
    (counters_.*entry.member).Reset();
  }
}

void MetricsRegistry::WriteText(std::ostream& os) const {
  for (const size_t i : kNameOrder) {
    os << "counter " << kCounterSchema[i].name << " "
       << (counters_.*kCounterSchema[i].member).Value() << "\n";
  }
}

void MetricsRegistry::SaveState(SnapshotWriter& writer) const {
  RegistryImage image;
  image.values.reserve(kNumCounters);
  for (const CounterSchemaEntry& entry : kCounterSchema) {
    image.values.push_back((counters_.*entry.member).Value());
  }
  writer.Seq(image.values, [&](int64_t v) { writer.VarInt(v); });
}

RegistryImage MetricsRegistry::ReadState(SnapshotReader& reader) {
  RegistryImage image;
  reader.Seq(image.values, [&](int64_t& v) { reader.VarInt(v); });
  if (reader.ok() && image.values.size() != kNumCounters) {
    reader.Fail("obs section holds " + std::to_string(image.values.size()) +
                " counters, this binary declares " + std::to_string(kNumCounters));
  }
  return image;
}

void MetricsRegistry::ApplyState(const RegistryImage& image) {
  for (size_t i = 0; i < kNumCounters && i < image.values.size(); ++i) {
    (counters_.*kCounterSchema[i].member).Set(image.values[i]);
  }
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues() const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(kNumCounters);
  for (const size_t i : kNameOrder) {
    out.emplace_back(kCounterSchema[i].name, (counters_.*kCounterSchema[i].member).Value());
  }
  return out;
}

}  // namespace obs
}  // namespace threesigma
