#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace {

// Simulator traffic counters in the process-wide metrics registry. Handles
// are resolved once; each increment is one relaxed atomic add.
struct SimCounters {
  obs::Counter* events;
  obs::Counter* arrivals;
  obs::Counter* completions;
  obs::Counter* node_faults;
  obs::Counter* task_kills;
  obs::Counter* cycles;
  obs::Counter* stalled_cycles;
  obs::Counter* fault_job_kills;
  obs::Counter* preemptions;
  obs::Counter* rejected_placements;
  // Per executed cycle: sched.<name> for every count field of its telemetry
  // (indexed like kCycleFields) and the decision sizes.
  obs::Counter* sched_fields[std::size(kCycleFields)] = {};
  obs::Counter* sched_cycles;
  obs::Counter* sched_starts;
  obs::Counter* sched_preempt_decisions;
  obs::Counter* sched_abandons;
  obs::Counter* sched_deferred;

  static const SimCounters& Get() {
    static const SimCounters* const counters = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* c = new SimCounters();
      c->events = reg.GetCounter("sim.events");
      c->arrivals = reg.GetCounter("sim.arrivals");
      c->completions = reg.GetCounter("sim.completions");
      c->node_faults = reg.GetCounter("sim.node_fault_events");
      c->task_kills = reg.GetCounter("sim.task_kill_events");
      c->cycles = reg.GetCounter("sim.cycles");
      c->stalled_cycles = reg.GetCounter("sim.stalled_cycles");
      c->fault_job_kills = reg.GetCounter("sim.fault_job_kills");
      c->preemptions = reg.GetCounter("sim.preemptions");
      c->rejected_placements = reg.GetCounter("sim.rejected_placements");
      for (size_t i = 0; i < std::size(kCycleFields); ++i) {
        if (kCycleFields[i].count != nullptr) {
          c->sched_fields[i] = reg.GetCounter(std::string("sched.") + kCycleFields[i].name);
        }
      }
      c->sched_cycles = reg.GetCounter("sched.cycles");
      c->sched_starts = reg.GetCounter("sched.starts");
      c->sched_preempt_decisions = reg.GetCounter("sched.preempt_decisions");
      c->sched_abandons = reg.GetCounter("sched.abandons");
      c->sched_deferred = reg.GetCounter("sched.deferred");
      return c;
    }();
    return *counters;
  }

  // Publishes one executed cycle: Sum fields are added, Max fields raise
  // their high-water mark, wall-clock fields stay out.
  void PublishCycle(const CycleStats& stats, const CycleResult& decision) const {
    for (size_t i = 0; i < std::size(kCycleFields); ++i) {
      const CycleField& f = kCycleFields[i];
      if (f.rollup == Rollup::kSum) {
        sched_fields[i]->Add(stats.*f.count);
      } else if (f.rollup == Rollup::kMax) {
        sched_fields[i]->RaiseTo(stats.*f.count);
      }
    }
    sched_cycles->Increment();
    sched_starts->Add(static_cast<int64_t>(decision.start.size()));
    sched_preempt_decisions->Add(static_cast<int64_t>(decision.preempt.size()));
    sched_abandons->Add(static_cast<int64_t>(decision.abandon.size()));
    sched_deferred->Add(static_cast<int64_t>(decision.deferred.size()));
  }
};

enum class EventKind {
  kArrival,
  kCompletion,
  kCycle,
  kNodeFault,  // Node crash/repair from the fault schedule.
  kTaskKill,   // Injected mid-run gang kill from the fault schedule.
};

struct Event {
  Time time;
  uint64_t seq;  // FIFO tiebreak for simultaneous events.
  EventKind kind;
  size_t job_index = 0;  // kNodeFault: index into the fault event list.
  int run_epoch = 0;     // Completion/kill validity: stale after preemption.

  bool operator>(const Event& other) const {
    if (time != other.time) {
      return time > other.time;
    }
    return seq > other.seq;
  }
};

// v2: open-workload mode — SimOptions.open_workload, RunState submission
// bookkeeping (submissions_closed, last_arrival), and the per-job arrived
// flag. v5: the per-cycle record lost its two shard counts ("metrics"
// section) and the scheduler's "sched" section its shard-basis map. v6: the
// per-cycle record gained lp_pivots, root_pivots and root_warm. v7: no
// "workload" section (the "sim" section's job records carry every spec). v8:
// the per-cycle record gained ftran, btran, refactorizations and
// warm_started_nodes. v9: the per-cycle record lost capacity_cache_hits and
// capacity_cache_misses, and the "sched" section (own version 8) its
// expected-capacity rows and per-job survival vectors. v10: the "obs"
// section has no histograms, and SimOptions ("meta") lost the runtime
// jitter and launch overhead, which became constants.
constexpr uint32_t kSnapshotVersion = 10;
// The "metrics" and "timing" sections walk kCycleFields, so any change to the
// per-cycle record changes their layout.
static_assert(std::size(kCycleFields) == 19,
              "the per-cycle record changed: bump kSnapshotVersion, then update this count");

template <typename Io, typename Options>
void WalkSimOptions(Io& io, Options& o) {
  io.Double(o.cycle_period);
  io.Double(o.reactive_min_gap);
  io.Enum(o.fidelity, SimFidelity::kHighFidelity);
  io.Double(o.drain_limit);
  io.Fixed64(o.seed);
  io.Double(o.heartbeat);
  io.Bool(o.preemption_resumes);
  WalkFaultOptions(io, o.faults);
  WalkFaultEvents(io, o.fault_events);
  io.VarInt(o.checkpoint_every);
  io.String(o.checkpoint_dir);
  io.VarInt(o.max_cycles);
  io.Bool(o.open_workload);
}

// The "meta" section: what a resumed process needs to rebuild the system
// before it can restore the rest.
struct MetaImage {
  uint64_t cycles_completed = 0;
  Time now = 0.0;
  std::vector<NodeGroup> groups;
  SimOptions options;
};

template <typename Io, typename Meta>
void WalkMeta(Io& io, Meta& m) {
  io.VarUint(m.cycles_completed);
  io.Double(m.now);
  io.Seq(m.groups, [&](auto& g) {
    io.VarInt(g.id);
    io.String(g.name);
    io.VarInt(g.node_count);
  });
  WalkSimOptions(io, m.options);
}

// Reads the "meta" section into `info`. The groups are checked against
// ClusterConfig's invariants before it is built from them.
bool ReadMeta(SnapshotReader& reader, CheckpointInfo* info) {
  MetaImage meta;
  WalkMeta(reader, meta);
  bool dense = !meta.groups.empty();
  for (size_t i = 0; i < meta.groups.size(); ++i) {
    dense = dense && meta.groups[i].id == static_cast<int>(i) && meta.groups[i].node_count > 0;
  }
  if (reader.ok() && !dense) {
    reader.Fail("snapshot cluster groups are not dense with positive node counts");
  }
  if (!reader.ok()) {
    return false;
  }
  info->cycles_completed = meta.cycles_completed;
  info->now = meta.now;
  info->cluster = ClusterConfig(std::move(meta.groups));
  info->options = std::move(meta.options);
  return true;
}

template <typename Io, typename Record>
void WalkJobRecord(Io& io, Record& rec) {
  io.Nested(rec.spec);
  io.Enum(rec.status, JobStatus::kUnfinished);
  io.Double(rec.start_time);
  io.Double(rec.finish_time);
  io.VarInt(rec.group);
  io.VarInt(rec.preemptions);
  io.VarInt(rec.fault_kills);
  io.Double(rec.completed_work);
  io.Seq(rec.runs, [&](auto& run) {
    io.VarInt(run.group);
    io.Double(run.start);
    io.Double(run.end);
    io.Bool(run.completed);
  }, 8);
}

// The "faults" section: the schedule plus the stall-draw key.
template <typename Io, typename State>
void WalkFaults(Io& io, State& s) {
  io.Nested(s.fault_schedule);
  io.VarInt(s.cycle_ordinal);
}

// The event loop's state ("sim" section). The queue array was a valid heap
// when saved; restoring it verbatim reproduces the exact pop order.
template <typename Io, typename State>
void WalkSim(Io& io, State& s) {
  io.Double(s.now);
  io.Fixed64(s.seq);
  io.Double(s.hard_stop);
  io.Double(s.next_cycle_at);
  io.Double(s.last_cycle_at);
  io.VarInt(s.live_jobs);
  io.Bool(s.drained);
  io.Seq(s.free_nodes, [&](auto& n) { io.VarInt(n); });
  io.Seq(s.down, [&](auto& n) { io.VarInt(n); });
  io.VarInt(s.total_down);
  io.Double(s.down_integral);
  io.Double(s.last_down_change);
  io.Seq(s.queue, [&](auto& e) {
    io.Double(e.time);
    io.Fixed64(e.seq);
    io.Enum(e.kind, EventKind::kTaskKill);
    io.VarUint(e.job_index);
    io.VarInt(e.run_epoch);
  }, 16);
  io.Seq(s.jobs, [&](auto& job) {
    WalkJobRecord(io, job.record);
    io.VarInt(job.run_epoch);
    io.Double(job.actual_duration);
    io.Double(job.progress);
    io.Double(job.executed_seconds);
    io.Bool(job.arrived);
  }, 8);
  io.Bool(s.submissions_closed);
  io.Double(s.last_arrival);
}

// The deterministic accumulated results ("metrics" section).
template <typename Io, typename Result>
void WalkMetrics(Io& io, Result& r) {
  io.VarInt(r.rejected_placements);
  io.VarInt(r.total_preemptions);
  io.VarInt(r.tasks_killed_by_faults);
  io.VarInt(r.fault_node_events);
  io.VarInt(r.stalled_cycles);
  io.Double(r.rework_node_seconds);
  WalkFaultEvents(io, r.fault_events);
  io.Seq(r.cycles, [&](auto& c) {
    io.Double(c.time);
    for (const CycleField& f : kCycleFields) {
      if (f.count != nullptr) {
        io.VarInt(c.*f.count);
      }
    }
  }, 8);
}

// Per-cycle wall-clock timings ("timing" section), the only state that is
// not reproducible.
template <typename Io, typename Cycles>
void WalkTiming(Io& io, Cycles& cycles) {
  io.Seq(cycles, [&](auto& c) {
    for (const CycleField& f : kCycleFields) {
      if (f.seconds != nullptr) {
        io.Double(c.*f.seconds);
      }
    }
  }, sizeof(double));
}

}  // namespace

// All mutable run state, so a run can pause between events, serialize, and
// resume. The event queue is an explicit binary min-heap (push_heap/pop_heap
// over operator>, a total order on (time, seq)) instead of a
// std::priority_queue precisely so the underlying array can be serialized and
// restored verbatim — identical array, identical pop order.
struct Simulator::RunState {
  struct LiveJob {
    JobRecord record;
    int run_epoch = 0;
    Duration actual_duration = 0.0;  // Of the current run.
    double progress = 0.0;           // Completed fraction (resume mode only).
    double executed_seconds = 0.0;   // Useful seconds from preempted runs.
    bool arrived = false;            // The arrival event has fired.
  };

  SimResult result;
  Rng rng{1};
  std::vector<LiveJob> jobs;
  std::map<JobId, size_t> index_by_id;
  std::vector<Event> queue;  // Heap order (min on top via operator>).
  uint64_t seq = 0;
  std::vector<int> free_nodes;
  int live_jobs = 0;
  Time hard_stop = 0.0;
  FaultSchedule fault_schedule;
  bool chaos = false;
  // down[g]: crashed nodes per group. Invariant after every event batch:
  // free_nodes[g] >= down[g] (crashed nodes are never counted as placeable).
  std::vector<int> down;
  int total_down = 0;
  double down_integral = 0.0;  // Node-seconds of crashed capacity.
  Time last_down_change = 0.0;
  int64_t cycle_ordinal = 0;  // Stall-draw key; counts attempted cycles.
  Time now = 0.0;
  Time next_cycle_at = -1.0;  // < 0: none scheduled.
  Time last_cycle_at = -1e18;
  bool drained = false;  // No event can ever append another cycle.
  // Open-workload bookkeeping. last_arrival tracks the latest submit time
  // seen (initial workload or injected) so CloseSubmissions can reconstruct
  // the batch-mode hard stop.
  bool submissions_closed = false;
  Time last_arrival = 0.0;

  void PushEvent(Event ev) {
    queue.push_back(ev);
    std::push_heap(queue.begin(), queue.end(), std::greater<Event>());
  }
  Event PopEvent() {
    std::pop_heap(queue.begin(), queue.end(), std::greater<Event>());
    const Event ev = queue.back();
    queue.pop_back();
    return ev;
  }
};

Simulator::Simulator(const ClusterConfig& cluster, Scheduler* scheduler,
                     std::vector<JobSpec> workload, SimOptions options)
    : cluster_(cluster), scheduler_(scheduler), workload_(std::move(workload)),
      options_(std::move(options)) {
  TS_CHECK(scheduler_ != nullptr);
}

Simulator::~Simulator() = default;

uint64_t Simulator::cycles_completed() const {
  return state_ == nullptr ? 0 : state_->result.cycles.size();
}

void Simulator::EnsureStarted() {
  if (state_ != nullptr) {
    return;
  }
  state_ = std::make_unique<RunState>();
  RunState& s = *state_;
  s.rng = Rng(options_.seed);

  std::vector<JobSpec> workload = std::move(workload_);  // Leaves workload_ empty.
  std::sort(workload.begin(), workload.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.submit_time < b.submit_time; });

  s.jobs.resize(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    TS_CHECK_MSG(s.index_by_id.emplace(workload[i].id, i).second,
                 "duplicate job id " << workload[i].id);
    TS_CHECK_MSG(workload[i].num_tasks <= cluster_.max_group_size(),
                 "job " << workload[i].id << " larger than any group");
    s.PushEvent(Event{workload[i].submit_time, s.seq++, EventKind::kArrival, i, 0});
    s.jobs[i].record.spec = std::move(workload[i]);
  }

  s.free_nodes.reserve(static_cast<size_t>(cluster_.num_groups()));
  for (const NodeGroup& g : cluster_.groups()) {
    s.free_nodes.push_back(g.node_count);
  }

  s.live_jobs = static_cast<int>(s.jobs.size());
  s.last_arrival = s.jobs.empty() ? 0.0 : s.jobs.back().record.spec.submit_time;
  // Open mode has no known last arrival yet: the run stays alive until
  // CloseSubmissions() converts the stop back to last_arrival + drain_limit.
  s.hard_stop = options_.open_workload ? std::numeric_limits<double>::infinity()
                                       : s.last_arrival + options_.drain_limit;

  // Fault schedule: pre-materialized node churn (every event is fixed before
  // the first cycle, so traces are byte-reproducible at any solver thread
  // count) plus hash-draw kill/straggler/stall processes.
  if (options_.open_workload && options_.fault_events.empty()) {
    TS_CHECK_MSG(options_.faults.node_mttf <= 0.0,
                 "open-workload mode cannot sample node churn over an unbounded "
                 "horizon; pass explicit fault_events to replay instead");
  }
  s.fault_schedule = options_.fault_events.empty()
                         ? FaultSchedule::Sample(cluster_, options_.faults, s.hard_stop)
                         : FaultSchedule::Replay(options_.fault_events, options_.faults);
  s.chaos = !s.fault_schedule.empty();
  s.down.assign(static_cast<size_t>(cluster_.num_groups()), 0);
  for (size_t i = 0; i < s.fault_schedule.node_events().size(); ++i) {
    const FaultEvent& ev = s.fault_schedule.node_events()[i];
    if (ev.time <= s.hard_stop) {
      s.PushEvent(Event{ev.time, s.seq++, EventKind::kNodeFault, i, 0});
    }
  }
}

bool Simulator::ProcessEvent() {
  RunState& s = *state_;
  SimResult& result = s.result;
  const size_t cycles_before = result.cycles.size();

  const auto schedule_cycle = [&](Time at) {
    if (s.live_jobs == 0 || at > s.hard_stop) {
      return;
    }
    if (s.next_cycle_at >= 0.0 && s.next_cycle_at <= at + 1e-9) {
      return;  // An earlier (or equal) cycle is already queued.
    }
    s.PushEvent(Event{at, s.seq++, EventKind::kCycle, 0, 0});
    s.next_cycle_at = at;
  };
  // Arrivals/completions request a prompt reaction, rate-limited to the
  // reactive gap so event storms do not degenerate into per-event solves.
  // With reactive cycles disabled the gap is the full cycle period — events
  // still bootstrap the periodic chain, they just cannot accelerate it.
  const auto schedule_reactive_cycle = [&]() {
    const Duration gap =
        options_.reactive_min_gap > 0.0 ? options_.reactive_min_gap : options_.cycle_period;
    schedule_cycle(std::max(s.now, s.last_cycle_at + gap));
  };

  const auto finish_job = [&](size_t idx, Time at) {
    RunState::LiveJob& job = s.jobs[idx];
    JobRecord& rec = job.record;
    TS_CHECK(rec.status == JobStatus::kRunning);
    rec.status = JobStatus::kCompleted;
    rec.finish_time = at;
    rec.completed_work = rec.spec.num_tasks * (job.executed_seconds + (at - rec.start_time));
    rec.runs.push_back(JobRun{rec.group, rec.start_time, at, true});
    s.free_nodes[rec.group] += rec.spec.num_tasks;
    --s.live_jobs;
    scheduler_->OnJobFinished(rec.spec.id, at, at - rec.start_time);
  };

  // Kill-and-requeue after a fault (node crash or injected task kill). Shares
  // the preemption path's mechanics, but the current run's progress is always
  // lost — a crash takes the in-memory state with it, so even in
  // migration-resume mode only previously banked (checkpointed) progress
  // survives — and the elapsed occupancy becomes rework.
  const auto fault_kill_job = [&](size_t idx, Time at) {
    RunState::LiveJob& job = s.jobs[idx];
    JobRecord& rec = job.record;
    TS_CHECK(rec.status == JobStatus::kRunning);
    rec.status = JobStatus::kPending;
    s.free_nodes[rec.group] += rec.spec.num_tasks;
    rec.runs.push_back(JobRun{rec.group, rec.start_time, at, false});
    result.rework_node_seconds += rec.spec.num_tasks * (at - rec.start_time);
    rec.group = -1;
    rec.start_time = kNever;
    ++rec.fault_kills;
    ++job.run_epoch;
    ++result.tasks_killed_by_faults;
    SimCounters::Get().fault_job_kills->Increment();
    scheduler_->OnJobFaultKilled(rec.spec.id, at);
  };

  // Applies a node crash/repair: adjusts the crashed-node ledger, then kills
  // just enough running gangs (most recently started first — the jobs whose
  // loss costs the least work — id as the deterministic tiebreak) to vacate
  // the crashed nodes.
  const auto apply_node_fault = [&](const FaultEvent& fault, Time at) {
    const size_t g = static_cast<size_t>(fault.group);
    TS_CHECK_MSG(fault.group >= 0 && fault.group < cluster_.num_groups(),
                 "fault event targets unknown group " << fault.group);
    s.down_integral += static_cast<double>(s.total_down) * (at - s.last_down_change);
    s.last_down_change = at;
    const int delta = fault.kind == FaultKind::kNodeDown ? fault.count : -fault.count;
    const int new_down =
        std::min(std::max(s.down[g] + delta, 0), cluster_.group(fault.group).node_count);
    s.total_down += new_down - s.down[g];
    s.down[g] = new_down;
    while (s.free_nodes[g] < s.down[g]) {
      // Crashed nodes were occupied: evict victims until they are vacated.
      size_t victim = s.jobs.size();
      for (size_t i = 0; i < s.jobs.size(); ++i) {
        const JobRecord& rec = s.jobs[i].record;
        if (rec.status != JobStatus::kRunning || rec.group != fault.group) {
          continue;
        }
        if (victim == s.jobs.size() ||
            rec.start_time > s.jobs[victim].record.start_time ||
            (rec.start_time == s.jobs[victim].record.start_time &&
             rec.spec.id > s.jobs[victim].record.spec.id)) {
          victim = i;
        }
      }
      TS_CHECK_MSG(victim < s.jobs.size(), "crashed nodes occupied but no running job found");
      fault_kill_job(victim, at);
    }
    ++result.fault_node_events;
    result.fault_events.push_back(fault);
    scheduler_->OnCapacityChanged(fault.group,
                                  cluster_.group(fault.group).node_count - s.down[g], at);
  };

  const Event ev = s.PopEvent();
  if (ev.time > s.hard_stop) {
    s.now = s.hard_stop;
    s.drained = true;
    return false;
  }
  TS_CHECK_GE(ev.time, s.now);  // The event clock is monotone.
  s.now = ev.time;
  if (obs::Tracer::enabled()) {
    obs::Tracer::Global().SetSimNow(s.now);
  }
  SimCounters::Get().events->Increment();

  switch (ev.kind) {
    case EventKind::kArrival: {
      RunState::LiveJob& job = s.jobs[ev.job_index];
      if (job.record.status != JobStatus::kPending) {
        break;  // Cancelled before its submit time; the scheduler never sees it.
      }
      TS_OBS_SPAN("sim.arrival", obs::Phase::kSimEvents);
      SimCounters::Get().arrivals->Increment();
      job.arrived = true;
      scheduler_->OnJobArrival(job.record.spec, s.now);
      schedule_reactive_cycle();
      break;
    }
    case EventKind::kCompletion: {
      RunState::LiveJob& job = s.jobs[ev.job_index];
      if (ev.run_epoch != job.run_epoch || job.record.status != JobStatus::kRunning) {
        break;  // Stale completion from a preempted run.
      }
      TS_OBS_SPAN("sim.completion", obs::Phase::kSimEvents);
      SimCounters::Get().completions->Increment();
      finish_job(ev.job_index, s.now);
      schedule_reactive_cycle();
      break;
    }
    case EventKind::kNodeFault: {
      TS_OBS_SPAN("sim.node_fault", obs::Phase::kFaultDelivery);
      SimCounters::Get().node_faults->Increment();
      apply_node_fault(s.fault_schedule.node_events()[ev.job_index], s.now);
      schedule_reactive_cycle();
      break;
    }
    case EventKind::kTaskKill: {
      RunState::LiveJob& job = s.jobs[ev.job_index];
      if (ev.run_epoch != job.run_epoch || job.record.status != JobStatus::kRunning) {
        break;  // Stale kill: the run already completed or was preempted.
      }
      TS_OBS_SPAN("sim.task_kill", obs::Phase::kFaultDelivery);
      SimCounters::Get().task_kills->Increment();
      fault_kill_job(ev.job_index, s.now);
      schedule_reactive_cycle();
      break;
    }
    case EventKind::kCycle: {
      if (std::fabs(ev.time - s.next_cycle_at) > 1e-9) {
        break;  // Superseded by an earlier reactive cycle.
      }
      s.next_cycle_at = -1.0;
      s.last_cycle_at = s.now;
      if (s.live_jobs == 0) {
        break;
      }
      if (s.chaos) {
        Duration stall = 0.0;
        if (s.fault_schedule.CycleStall(s.cycle_ordinal++, &stall)) {
          // The scheduler process is stalled: this cycle is lost; the next
          // chance to schedule comes once the stall clears.
          ++result.stalled_cycles;
          SimCounters::Get().stalled_cycles->Increment();
          schedule_cycle(s.now + stall);
          break;
        }
      }
      // Build the scheduler's view.
      ClusterStateView view;
      view.cluster = &cluster_;
      view.free_nodes = s.free_nodes;
      view.available_nodes.reserve(static_cast<size_t>(cluster_.num_groups()));
      for (int g = 0; g < cluster_.num_groups(); ++g) {
        // Crashed nodes are neither free nor placeable.
        view.free_nodes[static_cast<size_t>(g)] -= s.down[static_cast<size_t>(g)];
        view.available_nodes.push_back(cluster_.group(g).node_count -
                                       s.down[static_cast<size_t>(g)]);
      }
      int pending_count = 0;
      for (const RunState::LiveJob& job : s.jobs) {
        if (job.record.status == JobStatus::kRunning) {
          view.running.push_back(RunningJobView{job.record.spec.id, job.record.group,
                                                job.record.start_time,
                                                job.record.spec.num_tasks,
                                                job.record.spec.type});
        } else if (job.record.status == JobStatus::kPending && job.arrived) {
          // Only jobs the scheduler can actually see count as pending: in
          // batch mode the whole workload sits kPending from cycle 0, but a
          // job whose arrival event has not fired is not queued anywhere.
          ++pending_count;
        }
      }
      const int running_count = static_cast<int>(view.running.size());

      // Observability brackets. The cycle ordinal is the index of the row
      // this cycle appends to result.cycles.
      const int64_t cycle_index = static_cast<int64_t>(result.cycles.size());
      SimCounters::Get().cycles->Increment();
      if (obs::Tracer::enabled()) {
        obs::Tracer::Global().SetCycle(cycle_index);
      }
      if (obs::CycleProfiler::enabled()) {
        obs::CycleProfiler::Global().BeginCycle(cycle_index, s.now);
      }
      const CycleResult decision = scheduler_->RunCycle(s.now, view);
      // The one consumer of the cycle's telemetry: the run's record, the
      // phase CSV row and the registry all take it from here.
      CycleStats stats{decision, s.now};
      stats.pending = pending_count;
      stats.running_jobs = running_count;
      result.cycles.push_back(stats);
      if (obs::CycleProfiler::enabled()) {
        obs::CycleProfiler::Global().EndCycle(stats);
      }
      SimCounters::Get().PublishCycle(stats, decision);
      if (obs::Tracer::enabled()) {
        obs::Tracer::Global().SetCycle(-1);
      }
      if (obs::DecisionLog::enabled()) {
        obs::DecisionRecord record;
        record.cycle = cycle_index;
        record.sim_time = s.now;
        record.pending = pending_count;
        record.running = running_count;
        record.starts.reserve(decision.start.size());
        for (const Placement& p : decision.start) {
          record.starts.emplace_back(p.job, p.group);
        }
        record.preempts.assign(decision.preempt.begin(), decision.preempt.end());
        record.abandons.assign(decision.abandon.begin(), decision.abandon.end());
        record.deferred.reserve(decision.deferred.size());
        for (const PlannedPlacement& p : decision.deferred) {
          record.deferred.emplace_back(p.job, p.group);
        }
        obs::DecisionLog::Global().Record(std::move(record));
      }

      // 1. Preemptions free capacity first (slot-0 placements may rely on
      //    the freed nodes).
      for (JobId id : decision.preempt) {
        const size_t idx = s.index_by_id.at(id);
        RunState::LiveJob& job = s.jobs[idx];
        if (job.record.status != JobStatus::kRunning) {
          continue;  // Already finished in this same timestamp batch.
        }
        job.record.status = JobStatus::kPending;
        s.free_nodes[job.record.group] += job.record.spec.num_tasks;
        job.record.runs.push_back(
            JobRun{job.record.group, job.record.start_time, s.now, false});
        if (options_.preemption_resumes && job.actual_duration > 0.0) {
          // Migration-style preemption banks the completed fraction.
          const double run_fraction =
              std::min((s.now - job.record.start_time) / job.actual_duration, 1.0);
          job.progress += run_fraction * (1.0 - job.progress);
          job.executed_seconds += s.now - job.record.start_time;
        }
        job.record.group = -1;
        job.record.start_time = kNever;
        ++job.record.preemptions;
        ++job.run_epoch;
        ++result.total_preemptions;
        SimCounters::Get().preemptions->Increment();
        scheduler_->OnJobPreempted(id, s.now);
      }
      // 2. Abandonments retire jobs the scheduler will never run.
      for (JobId id : decision.abandon) {
        const size_t idx = s.index_by_id.at(id);
        RunState::LiveJob& job = s.jobs[idx];
        if (job.record.status != JobStatus::kPending) {
          continue;
        }
        job.record.status = JobStatus::kAbandoned;
        --s.live_jobs;
      }
      // 3. Starts.
      for (const Placement& p : decision.start) {
        const size_t idx = s.index_by_id.at(p.job);
        RunState::LiveJob& job = s.jobs[idx];
        JobRecord& rec = job.record;
        if (rec.status != JobStatus::kPending || p.group < 0 ||
            p.group >= cluster_.num_groups() ||
            s.free_nodes[p.group] - s.down[static_cast<size_t>(p.group)] <
                rec.spec.num_tasks) {
          ++result.rejected_placements;
          SimCounters::Get().rejected_placements->Increment();
          continue;
        }
        rec.status = JobStatus::kRunning;
        rec.group = p.group;
        rec.start_time = s.now;
        s.free_nodes[p.group] -= rec.spec.num_tasks;
        ++job.run_epoch;

        Duration duration = rec.spec.TrueRuntimeOn(p.group);
        if (options_.preemption_resumes) {
          duration *= 1.0 - job.progress;
        }
        if (s.chaos) {
          // Straggler chaos: hash-drawn per (job, attempt), so the verdict
          // does not depend on how many other draws preceded it.
          duration *= s.fault_schedule.StragglerMultiplier(rec.spec.id, job.run_epoch);
        }
        if (options_.fidelity == SimFidelity::kHighFidelity) {
          const double jitter =
              std::max(0.5, s.rng.Normal(1.0, kRuntimeJitterStddev));
          duration = duration * jitter + s.rng.Uniform(1.0, kLaunchOverheadMax);
          // Completions surface at the next heartbeat.
          const Time raw_finish = s.now + duration;
          const Time beat = options_.heartbeat;
          duration = std::ceil(raw_finish / beat) * beat - s.now;
        }
        duration = std::max(duration, 1e-3);
        job.actual_duration = duration;
        scheduler_->OnJobStarted(rec.spec.id, p.group, s.now);
        s.PushEvent(
            Event{s.now + duration, s.seq++, EventKind::kCompletion, idx, job.run_epoch});
        if (s.chaos) {
          double kill_fraction = 0.0;
          if (s.fault_schedule.TaskKill(rec.spec.id, job.run_epoch, &kill_fraction)) {
            // The kill lands strictly before the completion, which then
            // goes stale via the epoch bump in fault_kill_job.
            s.PushEvent(Event{s.now + kill_fraction * duration, s.seq++,
                              EventKind::kTaskKill, idx, job.run_epoch});
          }
        }
      }

      // Keep cycling while any job is pending or running.
      if (s.live_jobs > 0) {
        schedule_cycle(s.now + options_.cycle_period);
      }
      break;
    }
  }
  // With chaos on, pending fault events cannot affect anything once no job
  // is live; stop rather than replaying churn against an empty cluster. An
  // open-workload run idles instead of draining until submissions close.
  if (s.live_jobs == 0 && (s.queue.empty() || s.chaos) &&
      (!options_.open_workload || s.submissions_closed)) {
    s.drained = true;
  }
  return result.cycles.size() > cycles_before;
}

bool Simulator::Step() {
  EnsureStarted();
  RunState& s = *state_;
  while (!s.drained) {
    if (s.queue.empty()) {
      if (!options_.open_workload || s.submissions_closed) {
        s.drained = true;
      }
      break;  // Open mode: idle until the next injection, not drained.
    }
    if (ProcessEvent()) {
      return true;
    }
  }
  return false;
}

SimResult Simulator::Finish() {
  EnsureStarted();
  RunState& s = *state_;
  SimResult result = std::move(s.result);

  s.down_integral += static_cast<double>(s.total_down) * (s.now - s.last_down_change);
  result.available_node_seconds =
      static_cast<double>(cluster_.total_nodes()) * s.now - s.down_integral;
  if (s.now > 0.0 && cluster_.total_nodes() > 0) {
    result.node_downtime_fraction =
        s.down_integral / (static_cast<double>(cluster_.total_nodes()) * s.now);
  }
  result.end_time = s.now;
  result.jobs.reserve(s.jobs.size());
  for (RunState::LiveJob& job : s.jobs) {
    if (job.record.status == JobStatus::kRunning) {
      // Close the open run at the stop for occupancy provenance.
      job.record.runs.push_back(
          JobRun{job.record.group, job.record.start_time, s.now, false});
    }
    if (job.record.status == JobStatus::kPending || job.record.status == JobStatus::kRunning) {
      job.record.status = JobStatus::kUnfinished;
    }
    result.jobs.push_back(std::move(job.record));
  }
  state_.reset();
  return result;
}

SimResult Simulator::Run() {
  EnsureStarted();
  while (Step()) {
    MaybeCheckpoint();
    if (options_.max_cycles > 0 &&
        cycles_completed() >= static_cast<uint64_t>(options_.max_cycles)) {
      break;
    }
  }
  return Finish();
}

void Simulator::MaybeCheckpoint() {
  if (options_.checkpoint_every <= 0 || options_.checkpoint_dir.empty()) {
    return;
  }
  const uint64_t cycle = cycles_completed();
  if (cycle == 0 || cycle % static_cast<uint64_t>(options_.checkpoint_every) != 0) {
    return;
  }
  const std::string path =
      options_.checkpoint_dir + "/checkpoint_" + std::to_string(cycle) + ".snap";
  std::string error;
  TS_CHECK_MSG(WriteCheckpoint(path, &error), "checkpoint write failed: " << error);
}

void Simulator::DebugPerturbRng() {
  EnsureStarted();
  state_->rng.engine()();
}

namespace {
bool FailWith(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}
}  // namespace

bool Simulator::InjectJob(JobSpec spec, std::string* error) {
  EnsureStarted();
  RunState& s = *state_;
  // Speculative forks may inject what-if arrivals (surge overlays) even when
  // the underlying run is a closed batch workload.
  if (!options_.open_workload && !options_.speculative) {
    return FailWith(error, "job injection requires open_workload mode");
  }
  if (s.submissions_closed && !options_.speculative) {
    return FailWith(error, "submissions are closed");
  }
  if (s.index_by_id.count(spec.id) > 0) {
    return FailWith(error, "duplicate job id " + std::to_string(spec.id));
  }
  if (!ValidateJobSpec(spec, cluster_, error)) {
    return false;
  }
  // Arrivals cannot land in the past: the event clock is monotone.
  spec.submit_time = std::max(spec.submit_time, s.now);

  const size_t idx = s.jobs.size();
  RunState::LiveJob job;
  job.record.spec = spec;
  s.jobs.push_back(std::move(job));
  s.index_by_id.emplace(spec.id, idx);
  s.PushEvent(Event{spec.submit_time, s.seq++, EventKind::kArrival, idx, 0});
  ++s.live_jobs;
  s.last_arrival = std::max(s.last_arrival, spec.submit_time);
  return true;
}

void Simulator::CloseSubmissions() {
  EnsureStarted();
  RunState& s = *state_;
  if (!options_.open_workload || s.submissions_closed) {
    return;
  }
  s.submissions_closed = true;
  s.hard_stop = std::max(s.last_arrival + options_.drain_limit, s.now);
  if (s.live_jobs == 0 && (s.queue.empty() || s.chaos)) {
    s.drained = true;
  }
}

bool Simulator::InjectFaultOverlay(const std::vector<FaultEvent>& events, std::string* error) {
  EnsureStarted();
  RunState& s = *state_;
  if (!options_.speculative) {
    return FailWith(error, "fault overlays are restricted to speculative forks");
  }
  for (const FaultEvent& ev : events) {
    if (ev.time <= s.now) {
      return FailWith(error, "fault overlay event not in the future");
    }
    if (ev.group < 0 || ev.group >= cluster_.num_groups()) {
      return FailWith(error, "fault overlay event names an unknown group");
    }
  }
  // Append (never insert): pending kNodeFault queue entries index into
  // node_events() by position, so the existing prefix must not move.
  const size_t first = s.fault_schedule.AppendEvents(events);
  for (size_t i = 0; i < events.size(); ++i) {
    s.PushEvent(Event{events[i].time, s.seq++, EventKind::kNodeFault, first + i, 0});
  }
  if (!events.empty()) {
    s.chaos = true;
  }
  return true;
}

bool Simulator::CancelJob(JobId id, std::string* error) {
  EnsureStarted();
  RunState& s = *state_;
  const auto it = s.index_by_id.find(id);
  if (it == s.index_by_id.end()) {
    return FailWith(error, "unknown job id " + std::to_string(id));
  }
  RunState::LiveJob& job = s.jobs[it->second];
  if (job.record.status != JobStatus::kPending) {
    return FailWith(error, "job " + std::to_string(id) + " is not pending");
  }
  job.record.status = JobStatus::kAbandoned;
  --s.live_jobs;
  if (job.arrived) {
    // The scheduler queued it at arrival; jobs cancelled before their submit
    // time were never delivered (the arrival event sees kAbandoned and
    // skips).
    scheduler_->OnJobCancelled(id, s.now);
  }
  if (s.live_jobs == 0 && (s.queue.empty() || s.chaos) &&
      (!options_.open_workload || s.submissions_closed)) {
    s.drained = true;
  }
  return true;
}

bool Simulator::QueryJob(JobId id, JobStatusInfo* info) {
  EnsureStarted();
  RunState& s = *state_;
  const auto it = s.index_by_id.find(id);
  if (it == s.index_by_id.end()) {
    return false;
  }
  const RunState::LiveJob& job = s.jobs[it->second];
  info->status = job.record.status;
  info->submit_time = job.record.spec.submit_time;
  info->start_time = job.record.start_time;
  info->finish_time = job.record.finish_time;
  info->group = job.record.group;
  info->preemptions = job.record.preemptions;
  info->arrived = job.arrived;
  return true;
}

void Simulator::ForEachJob(const std::function<void(const JobRecord&)>& visit) {
  EnsureStarted();
  for (const RunState::LiveJob& job : state_->jobs) {
    visit(job.record);
  }
}

SimStateInfo Simulator::StateNow() {
  EnsureStarted();
  RunState& s = *state_;
  SimStateInfo info;
  info.now = s.now;
  info.cycles_completed = s.result.cycles.size();
  info.total_jobs = static_cast<int64_t>(s.jobs.size());
  for (const RunState::LiveJob& job : s.jobs) {
    switch (job.record.status) {
      case JobStatus::kPending:
        if (job.arrived) {
          ++info.pending_jobs;
        }
        break;
      case JobStatus::kRunning: ++info.running_jobs; break;
      case JobStatus::kCompleted: ++info.completed_jobs; break;
      case JobStatus::kAbandoned: ++info.abandoned_jobs; break;
      case JobStatus::kUnfinished: break;
    }
  }
  info.total_nodes = cluster_.total_nodes();
  for (int g = 0; g < cluster_.num_groups(); ++g) {
    const size_t gi = static_cast<size_t>(g);
    info.available_nodes += cluster_.group(g).node_count - s.down[gi];
    info.free_nodes += s.free_nodes[gi] - s.down[gi];
  }
  info.drained = s.drained;
  return info;
}

Time Simulator::now() {
  EnsureStarted();
  return state_->now;
}

bool Simulator::drained() {
  EnsureStarted();
  return state_->drained;
}

std::string Simulator::SaveStateToBuffer() {
  EnsureStarted();
  RunState& s = *state_;
  SnapshotWriter writer;

  writer.BeginSection("meta", kSnapshotVersion);
  const MetaImage meta{s.result.cycles.size(), s.now, cluster_.groups(), options_};
  WalkMeta(writer, meta);
  writer.EndSection();

  writer.BeginSection("rng", kSnapshotVersion);
  s.rng.SaveState(writer);
  writer.EndSection();

  writer.BeginSection("faults", kSnapshotVersion);
  WalkFaults(writer, s);
  writer.EndSection();

  writer.BeginSection("sim", kSnapshotVersion);
  WalkSim(writer, s);
  writer.EndSection();

  // Per-cycle wall-clock timings go in their own "timing" section so
  // replay_diff can ignore the only non-reproducible state.
  writer.BeginSection("metrics", kSnapshotVersion);
  WalkMetrics(writer, s.result);
  writer.EndSection();

  writer.BeginSection("timing", kSnapshotVersion);
  WalkTiming(writer, s.result.cycles);
  writer.EndSection();

  // Registry aggregates, so a resumed run continues its counters instead of
  // restarting them at zero (the pre-registry RunMetrics plumbing lost
  // counter state across TryResumeFrom).
  writer.BeginSection("obs", kSnapshotVersion);
  obs::MetricsRegistry::Global().SaveState(writer);
  writer.EndSection();

  // The scheduler appends its own "sched" (and, where applicable, "predict")
  // sections, then the host (svc server) its extension sections, so one
  // checkpoint restarts the whole process.
  scheduler_->SaveState(writer);
  if (extension_ != nullptr) {
    extension_->SaveState(writer);
  }
  return writer.Finish();
}

bool Simulator::WriteCheckpoint(const std::string& path, std::string* error) {
  return WriteFileAtomic(path, SaveStateToBuffer(), error);
}

bool Simulator::TryRestoreStateFromBuffer(const std::string& buffer, std::string* error) {
  // Borrowed: restore reads straight out of the caller's buffer (the twin
  // engine restores many forks from one live snapshot; no copy per fork).
  SnapshotReader reader(SnapshotReader::Borrowed{}, buffer);
  if (!reader.ok()) {
    return FailWith(error, reader.error());
  }

  uint32_t version = 0;
  reader.BeginSection("meta", &version);
  if (reader.ok() && version != kSnapshotVersion) {
    return FailWith(error, "unsupported snapshot version " + std::to_string(version));
  }
  CheckpointInfo meta;
  ReadMeta(reader, &meta);
  reader.EndSection();
  if (!reader.ok()) {
    return FailWith(error, reader.error());
  }
  if (meta.cluster.num_groups() != cluster_.num_groups()) {
    return FailWith(error, "snapshot cluster has " + std::to_string(meta.cluster.num_groups()) +
                               " groups, this simulator has " +
                               std::to_string(cluster_.num_groups()));
  }
  for (int g = 0; g < cluster_.num_groups(); ++g) {
    if (meta.cluster.group(g).node_count != cluster_.group(g).node_count) {
      return FailWith(error, "snapshot cluster group " + std::to_string(g) + " has " +
                                 std::to_string(meta.cluster.group(g).node_count) +
                                 " nodes, expected " +
                                 std::to_string(cluster_.group(g).node_count));
    }
  }
  // The simulation's options come from the snapshot; the local-run knobs
  // (where to checkpoint next, when to stop) stay the caller's.
  SimOptions snap_options = std::move(meta.options);
  snap_options.checkpoint_every = options_.checkpoint_every;
  snap_options.checkpoint_dir = options_.checkpoint_dir;
  snap_options.max_cycles = options_.max_cycles;
  snap_options.speculative = options_.speculative;

  auto state = std::make_unique<RunState>();
  RunState& s = *state;

  reader.BeginSection("rng");
  reader.Nested(s.rng);
  reader.EndSection();

  reader.BeginSection("faults");
  WalkFaults(reader, s);
  reader.EndSection();
  s.chaos = !s.fault_schedule.empty();

  reader.BeginSection("sim");
  WalkSim(reader, s);
  reader.EndSection();

  reader.BeginSection("metrics");
  WalkMetrics(reader, s.result);
  reader.EndSection();

  reader.BeginSection("timing");
  const size_t num_cycles = s.result.cycles.size();
  WalkTiming(reader, s.result.cycles);
  if (reader.ok() && s.result.cycles.size() != num_cycles) {
    reader.Fail("timing section disagrees with the metrics section");
  }
  reader.EndSection();
  if (reader.ok()) {
    CheckRestoredState(s, &reader);
  }

  // Registry totals, staged here and applied at commit. Restore is absolute,
  // so the resumed process continues the saved totals. A speculative fork
  // shares the process-global registry with the live run; applying the
  // section would clobber live totals, so it is consumed unapplied
  // (EndSection skips the payload).
  const bool apply_obs = !options_.speculative;
  obs::RegistryImage registry;
  reader.BeginSection("obs");
  if (reader.ok() && apply_obs) {
    registry = obs::MetricsRegistry::ReadState(reader);
  }
  reader.EndSection();

  for (size_t i = 0; i < s.jobs.size() && reader.ok(); ++i) {
    if (!s.index_by_id.emplace(s.jobs[i].record.spec.id, i).second) {
      reader.Fail("snapshot has duplicate job id " + std::to_string(s.jobs[i].record.spec.id));
    }
  }
  if (!reader.ok()) {
    return FailWith(error, reader.error());
  }

  // The scheduler, its derivation hook (before the host: an advisor host
  // re-predicts from the derived specs), then the host; the staged state is
  // committed only once all of them succeed.
  scheduler_->RestoreState(reader);
  if (reader.ok()) {
    std::vector<const JobRecord*> live;
    for (const RunState::LiveJob& job : s.jobs) {
      if (job.arrived && (job.record.status == JobStatus::kPending ||
                          job.record.status == JobStatus::kRunning)) {
        live.push_back(&job.record);
      }
    }
    scheduler_->OnJobsRestored(live, reader);
  }
  if (reader.ok() && extension_ != nullptr) {
    extension_->RestoreState(reader);
  }
  if (!reader.ok()) {
    return FailWith(error, reader.error());
  }
  if (apply_obs) {
    obs::MetricsRegistry::Global().ApplyState(registry);
  }
  options_ = std::move(snap_options);
  state_ = std::move(state);
  return true;
}

void Simulator::CheckRestoredState(const RunState& s, SnapshotReader* reader) const {
  const size_t num_groups = static_cast<size_t>(cluster_.num_groups());
  const size_t num_faults = s.fault_schedule.node_events().size();
  // Step() indexes these by group, job index and fault index, requires a
  // monotone event clock, and schedules completions from the job specs.
  if (s.free_nodes.size() != num_groups || s.down.size() != num_groups ||
      !std::is_heap(s.queue.begin(), s.queue.end(), std::greater<Event>())) {
    reader->Fail("snapshot state does not match the cluster");
    return;
  }
  std::string invalid;
  const auto in_groups = [&](int g) { return g >= 0 && static_cast<size_t>(g) < num_groups; };
  std::vector<int> occupied(num_groups, 0);
  for (const RunState::LiveJob& job : s.jobs) {
    const JobRecord& rec = job.record;
    if (!ValidateJobSpec(rec.spec, cluster_, &invalid)) {
      reader->Fail("snapshot " + invalid);
      return;
    }
    // A pending job holds no group; a running one arrived and started by
    // the restored clock (a completion reports now - start_time).
    const bool running = rec.status == JobStatus::kRunning;
    if ((rec.group != -1 && !in_groups(rec.group)) ||
        (rec.status == JobStatus::kPending && rec.group != -1) ||
        (running && (!in_groups(rec.group) || !job.arrived || !(rec.start_time <= s.now)))) {
      reader->Fail("snapshot job " + std::to_string(rec.spec.id) + " run state is inconsistent");
      return;
    }
    if (running) {
      occupied[static_cast<size_t>(rec.group)] += rec.spec.num_tasks;
    }
  }
  // free_nodes[g] counts unoccupied nodes, crashed ones included; a crash
  // evicts running gangs until its nodes are vacated.
  for (size_t g = 0; g < num_groups; ++g) {
    if (s.free_nodes[g] != cluster_.group(static_cast<int>(g)).node_count - occupied[g] ||
        s.down[g] < 0 || s.down[g] > s.free_nodes[g]) {
      reader->Fail("snapshot node ledger of group " + std::to_string(g) + " is inconsistent");
      return;
    }
  }
  for (const Event& e : s.queue) {
    const size_t limit = e.kind == EventKind::kNodeFault ? num_faults
                         : e.kind == EventKind::kCycle   ? 1
                                                         : s.jobs.size();
    if (!(e.time >= s.now) || e.job_index >= limit) {
      reader->Fail("snapshot event queue is inconsistent");
      return;
    }
  }
  for (const FaultEvent& f : s.fault_schedule.node_events()) {
    if (f.group < 0 || static_cast<size_t>(f.group) >= num_groups) {
      reader->Fail("snapshot fault event group out of range");
      return;
    }
  }
}

bool Simulator::TryResumeFrom(const std::string& path, std::string* error) {
  std::string buffer;
  if (!ReadFileToString(path, &buffer, error)) {
    return false;
  }
  return TryRestoreStateFromBuffer(buffer, error);
}

void Simulator::RestoreStateFromBuffer(const std::string& buffer) {
  std::string error;
  TS_CHECK_MSG(TryRestoreStateFromBuffer(buffer, &error), "snapshot restore failed: " << error);
}

bool Simulator::PeekCheckpoint(const std::string& path, CheckpointInfo* info,
                               std::string* error) {
  std::string buffer;
  if (!ReadFileToString(path, &buffer, error)) {
    return false;
  }
  SnapshotReader reader(std::move(buffer));
  if (reader.BeginSection("meta")) {
    ReadMeta(reader, info);
    reader.EndSection();
  }
  if (!reader.ok()) {
    if (error != nullptr) {
      *error = reader.error();
    }
    return false;
  }
  return true;
}

}  // namespace threesigma
