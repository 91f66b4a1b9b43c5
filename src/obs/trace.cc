#include "src/obs/trace.h"

#include <chrono>
#include <ostream>

#include "src/obs/profiler.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace obs {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// v2: spans lost their thread ordinal (the tracer has one ring).
constexpr uint32_t kTraceSectionVersion = 2;

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCapacity:
      return "capacity";
    case Phase::kSelect:
      return "select";
    case Phase::kValuation:
      return "valuation";
    case Phase::kBuild:
      return "build";
    case Phase::kSolve:
      return "solve";
    case Phase::kPlacement:
      return "placement";
    case Phase::kSimEvents:
      return "sim_events";
    case Phase::kFaultDelivery:
      return "fault_delivery";
    case Phase::kPredict:
      return "predict";
    case Phase::kOther:
      return "other";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

std::atomic<bool> Tracer::enabled_{false};

Tracer::Tracer() { epoch_ns_ = SteadyNowNs(); }

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

void Tracer::Push(const SpanRecord& record) {
  if (ring_.empty()) {
    ring_.resize(ring_capacity_);
    if (ring_.empty()) {
      ++dropped_;
      return;
    }
  }
  if (count_ == ring_.size()) {
    ++dropped_;
  } else {
    ++count_;
  }
  ring_[head_] = record;
  head_ = (head_ + 1) % ring_.size();
}

uint32_t Tracer::InternName(const char* name, Phase phase) {
  std::lock_guard<std::mutex> lock(names_mu_);
  names_.emplace_back(name, phase);
  return static_cast<uint32_t>(names_.size() - 1);
}

double Tracer::WallNow() const {
  return static_cast<double>(SteadyNowNs() - epoch_ns_) * 1e-9;
}

void Tracer::Clear() {
  ring_ = {};
  head_ = 0;
  count_ = 0;
  order_ = 0;
  dropped_ = 0;
  depth_ = 0;
  epoch_ns_ = SteadyNowNs();
}

std::vector<SpanRecord> Tracer::CollectSpans() const {
  std::vector<SpanRecord> out;
  out.reserve(count_);
  // Oldest-first: the ring holds the last `count_` records ending at head_.
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + ring_.size() - count_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<std::pair<std::string, Phase>> Tracer::names() const {
  std::lock_guard<std::mutex> lock(names_mu_);
  return names_;
}

void Tracer::ExportChromeJson(std::ostream& os) const {
  const std::vector<std::pair<std::string, Phase>> name_table = names();
  const std::vector<SpanRecord> spans = CollectSpans();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) {
      os << ",";
    }
    first = false;
    const std::string& name = span.name_id < name_table.size()
                                  ? name_table[span.name_id].first
                                  : std::string("unknown");
    // Complete ("X") events; timestamps are microseconds of quarantined
    // wall clock since the tracer epoch.
    os << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
       << span.wall_start * 1e6 << ",\"dur\":" << span.wall_dur * 1e6
       << ",\"args\":{\"cycle\":" << span.cycle << ",\"sim_time\":" << span.sim_time
       << ",\"phase\":\"" << PhaseName(static_cast<Phase>(span.phase)) << "\"}}";
  }
  os << "]}";
}

void Tracer::ExportBinary(SnapshotWriter& writer) const {
  const std::vector<std::pair<std::string, Phase>> name_table = names();
  const std::vector<SpanRecord> spans = CollectSpans();

  writer.BeginSection("trace_names", kTraceSectionVersion);
  writer.WriteVarU64(name_table.size());
  for (const auto& [name, phase] : name_table) {
    writer.WriteString(name);
    writer.WriteU8(static_cast<uint8_t>(phase));
  }
  writer.EndSection();

  // Deterministic fields only: byte-identical across runs.
  writer.BeginSection("trace_spans", kTraceSectionVersion);
  writer.WriteVarU64(spans.size());
  for (const SpanRecord& span : spans) {
    writer.WriteVarU64(span.name_id);
    writer.WriteU8(span.phase);
    writer.WriteVarU64(span.depth);
    writer.WriteVarI64(span.cycle);
    writer.WriteDouble(span.sim_time);
    writer.WriteVarU64(span.order);
  }
  writer.EndSection();

  // Wall clock, quarantined exactly like the snapshot "timing" section.
  writer.BeginSection("trace_timing", kTraceSectionVersion);
  writer.WriteVarU64(spans.size());
  for (const SpanRecord& span : spans) {
    writer.WriteDouble(span.wall_start);
    writer.WriteDouble(span.wall_dur);
  }
  writer.EndSection();
}

SpanName::SpanName(const char* name, Phase phase)
    : id_(Tracer::Global().InternName(name, phase)), phase_(phase) {}

void Span::Begin(const SpanName& name) {
  Tracer& tracer = Tracer::Global();
  begun_ = true;
  name_id_ = name.id();
  phase_ = name.phase();
  ++tracer.depth_;
  wall_start_ = tracer.WallNow();
}

void Span::End() {
  Tracer& tracer = Tracer::Global();
  const double wall_dur = tracer.WallNow() - wall_start_;
  if (tracer.depth_ > 0) {
    --tracer.depth_;
  }
  SpanRecord record;
  record.name_id = name_id_;
  record.phase = static_cast<uint8_t>(phase_);
  record.depth = tracer.depth_;
  record.cycle = tracer.cycle();
  record.sim_time = tracer.sim_now();
  record.order = tracer.order_++;
  record.wall_start = wall_start_;
  record.wall_dur = wall_dur;
  tracer.Push(record);
  if (phase_ != Phase::kOther && CycleProfiler::enabled()) {
    CycleProfiler::Global().AddPhase(phase_, wall_dur);
  }
}

}  // namespace obs
}  // namespace threesigma
