#include "src/faults/fault_schedule.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

// splitmix64 finalizer: the hash behind every per-entity draw. Unlike a
// shared RNG stream, a hash keyed on stable identifiers gives the same
// verdict no matter how many draws happened before it.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from a hash.
double U01(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

// Domain-separation tags so the kill, straggler, and stall draws for the
// same identifiers are independent.
constexpr uint64_t kTagKill = 0x6b696c6cULL;       // "kill"
constexpr uint64_t kTagStraggler = 0x73747261ULL;  // "stra"
constexpr uint64_t kTagStall = 0x7374616cULL;      // "stal"

uint64_t DrawHash(uint64_t seed, uint64_t tag, uint64_t a, uint64_t b) {
  return Mix(Mix(Mix(seed ^ tag) ^ a) ^ b);
}

}  // namespace

FaultSchedule FaultSchedule::Sample(const ClusterConfig& cluster, const FaultOptions& options,
                                    Time horizon) {
  TS_CHECK_GE(options.node_mttf, 0.0);
  TS_CHECK_GE(options.task_kill_prob, 0.0);
  TS_CHECK_LE(options.task_kill_prob, 1.0);
  TS_CHECK_GE(options.straggler_prob, 0.0);
  TS_CHECK_LE(options.straggler_prob, 1.0);
  TS_CHECK_GE(options.straggler_factor, 1.0);
  TS_CHECK_GE(options.cycle_stall_prob, 0.0);
  TS_CHECK_LE(options.cycle_stall_prob, 1.0);

  TS_OBS_SPAN("faults.sample", obs::Phase::kOther);
  FaultSchedule schedule;
  schedule.options_ = options;
  if (options.node_mttf <= 0.0 || horizon <= 0.0) {
    return schedule;
  }
  TS_CHECK_GT(options.node_mttr, 0.0);

  // Each node alternates up ~Exp(mttf) / down ~Exp(mttr) from its own forked
  // stream, so the materialized list depends only on (cluster, seed, horizon)
  // — adding a node never perturbs another node's process.
  for (const NodeGroup& group : cluster.groups()) {
    for (int node = 0; node < group.node_count; ++node) {
      Rng rng(Mix(Mix(options.seed ^ 0x6e6f6465ULL) ^ static_cast<uint64_t>(group.id) << 32 ^
                  static_cast<uint64_t>(node)));
      Time t = 0.0;
      while (true) {
        t += rng.Exponential(options.node_mttf);
        if (t > horizon) {
          break;
        }
        schedule.node_events_.push_back(FaultEvent{t, FaultKind::kNodeDown, group.id, 1});
        t += rng.Exponential(options.node_mttr);
        if (t > horizon) {
          break;  // Repair lands after the horizon: the node stays down.
        }
        schedule.node_events_.push_back(FaultEvent{t, FaultKind::kNodeUp, group.id, 1});
      }
    }
  }
  std::sort(schedule.node_events_.begin(), schedule.node_events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) {
                return a.time < b.time;
              }
              if (a.group != b.group) {
                return a.group < b.group;
              }
              // Repairs before crashes at identical timestamps, so the down
              // count never transiently overshoots.
              return static_cast<int>(a.kind) > static_cast<int>(b.kind);
            });
  return schedule;
}

FaultSchedule FaultSchedule::Replay(std::vector<FaultEvent> events, const FaultOptions& options) {
  FaultSchedule schedule;
  schedule.options_ = options;
  schedule.node_events_ = std::move(events);
  std::stable_sort(schedule.node_events_.begin(), schedule.node_events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  for (const FaultEvent& ev : schedule.node_events_) {
    TS_CHECK_GE(ev.time, 0.0);
    TS_CHECK_GT(ev.count, 0);
  }
  return schedule;
}

bool FaultSchedule::TaskKill(int64_t job, int attempt, double* kill_fraction) const {
  if (options_.task_kill_prob <= 0.0) {
    return false;
  }
  const uint64_t h = DrawHash(options_.seed, kTagKill, static_cast<uint64_t>(job),
                              static_cast<uint64_t>(attempt));
  if (U01(h) >= options_.task_kill_prob) {
    return false;
  }
  // Keep the kill strictly inside the run so it always truncates work.
  *kill_fraction = 0.05 + 0.9 * U01(Mix(h));
  static obs::Counter* const kill_draws =
      obs::MetricsRegistry::Global().GetCounter("faults.task_kill_draws");
  kill_draws->Increment();
  return true;
}

double FaultSchedule::StragglerMultiplier(int64_t job, int attempt) const {
  if (options_.straggler_prob <= 0.0) {
    return 1.0;
  }
  const uint64_t h = DrawHash(options_.seed, kTagStraggler, static_cast<uint64_t>(job),
                              static_cast<uint64_t>(attempt));
  if (U01(h) >= options_.straggler_prob) {
    return 1.0;
  }
  static obs::Counter* const straggler_draws =
      obs::MetricsRegistry::Global().GetCounter("faults.straggler_draws");
  straggler_draws->Increment();
  return 1.0 + (options_.straggler_factor - 1.0) * U01(Mix(h));
}

bool FaultSchedule::CycleStall(int64_t ordinal, Duration* stall) const {
  if (options_.cycle_stall_prob <= 0.0 || options_.cycle_stall <= 0.0) {
    return false;
  }
  const uint64_t h = DrawHash(options_.seed, kTagStall, static_cast<uint64_t>(ordinal), 0);
  if (U01(h) >= options_.cycle_stall_prob) {
    return false;
  }
  *stall = options_.cycle_stall;
  static obs::Counter* const stall_draws =
      obs::MetricsRegistry::Global().GetCounter("faults.cycle_stall_draws");
  stall_draws->Increment();
  return true;
}

AvailabilityTimeline::AvailabilityTimeline(const ClusterConfig& cluster,
                                           const std::vector<FaultEvent>& events) {
  nominal_.reserve(static_cast<size_t>(cluster.num_groups()));
  for (const NodeGroup& g : cluster.groups()) {
    nominal_.push_back(g.node_count);
  }
  steps_.resize(nominal_.size());
  std::vector<int> down(nominal_.size(), 0);
  std::vector<FaultEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  for (const FaultEvent& ev : sorted) {
    TS_CHECK_GE(ev.group, 0);
    TS_CHECK_LT(ev.group, static_cast<int>(nominal_.size()));
    const size_t g = static_cast<size_t>(ev.group);
    const int delta = ev.kind == FaultKind::kNodeDown ? ev.count : -ev.count;
    down[g] = std::clamp(down[g] + delta, 0, nominal_[g]);
    const int available = nominal_[g] - down[g];
    if (!steps_[g].empty() && steps_[g].back().time == ev.time) {
      steps_[g].back().available = available;
    } else {
      steps_[g].push_back(Step{ev.time, available});
    }
  }
}

int AvailabilityTimeline::AvailableAt(int group, Time t) const {
  TS_CHECK_GE(group, 0);
  TS_CHECK_LT(group, static_cast<int>(nominal_.size()));
  const std::vector<Step>& steps = steps_[static_cast<size_t>(group)];
  int available = nominal_[static_cast<size_t>(group)];
  for (const Step& step : steps) {
    if (step.time > t) {
      break;
    }
    available = step.available;
  }
  return available;
}

double AvailabilityTimeline::DowntimeNodeSeconds(Time end) const {
  double total = 0.0;
  for (size_t g = 0; g < steps_.size(); ++g) {
    Time prev_time = 0.0;
    int prev_available = nominal_[g];
    for (const Step& step : steps_[g]) {
      if (step.time >= end) {
        break;
      }
      total += (nominal_[g] - prev_available) * (step.time - prev_time);
      prev_time = step.time;
      prev_available = step.available;
    }
    if (end > prev_time) {
      total += (nominal_[g] - prev_available) * (end - prev_time);
    }
  }
  return total;
}

template <typename Io, typename Self>
void FaultSchedule::Walk(Io& io, Self& self) {
  WalkFaultOptions(io, self.options_);
  WalkFaultEvents(io, self.node_events_);
}

void FaultSchedule::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void FaultSchedule::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

}  // namespace threesigma
