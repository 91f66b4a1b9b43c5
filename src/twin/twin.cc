#include "src/twin/twin.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/core/config_flags.h"
#include "src/obs/registry.h"
#include "src/obs/profiler.h"
#include "src/obs/speculative.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace {

std::string FmtD(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

double WallSeconds() {
  const std::chrono::duration<double> d = std::chrono::steady_clock::now().time_since_epoch();
  return d.count();
}

// Applies a named system's policy toggles (the MakeSystem table) to `config`.
// The predictor is NOT switched — a fork restores the live predictor's state,
// so only toggle-level kind switches are expressible. Prio is a different
// scheduler class entirely and is rejected.
bool ApplySystemToggles(const std::string& system, DistSchedulerConfig* config,
                        std::string* error) {
  SystemKind kind;
  if (!ParseSystemName(system, &kind)) {
    *error = "unknown system: " + system;
    return false;
  }
  switch (kind) {
    case SystemKind::kThreeSigma:
      config->use_distribution = true;
      config->overestimate_handling = true;
      config->adaptive_oe = true;
      break;
    case SystemKind::kThreeSigmaNoDist:
      config->use_distribution = false;
      config->overestimate_handling = true;
      config->adaptive_oe = true;
      break;
    case SystemKind::kThreeSigmaNoOE:
      config->use_distribution = true;
      config->overestimate_handling = false;
      break;
    case SystemKind::kThreeSigmaNoAdapt:
      config->use_distribution = true;
      config->overestimate_handling = true;
      config->adaptive_oe = false;
      break;
    case SystemKind::kPointPerfEst:
    case SystemKind::kPointRealEst:
      config->use_distribution = false;
      config->overestimate_handling = false;
      break;
    case SystemKind::kPrio:
      *error = "scenario system switch must stay within the DistributionScheduler family";
      return false;
  }
  config->name = SystemName(kind);
  return true;
}

// A utility function translated `delta` seconds into the future (surge clones
// re-arrive later, so their deadlines/decay origins shift with them).
UtilityFunction ShiftUtility(const UtilityFunction& u, double delta) {
  switch (u.kind()) {
    case UtilityFunction::Kind::kStep:
      return UtilityFunction::SloStep(u.peak_value(), u.deadline() + delta);
    case UtilityFunction::Kind::kStepDecay:
      return UtilityFunction::SloStepWithDecay(u.peak_value(), u.deadline() + delta, u.window());
    case UtilityFunction::Kind::kLinear:
      return UtilityFunction::BestEffortLinear(u.peak_value(), u.start() + delta, u.window());
  }
  return u;
}

}  // namespace

bool ApplyConfigOverrides(const Scenario& scenario, DistSchedulerConfig* config,
                          std::string* error) {
  if (!scenario.system.empty() && !ApplySystemToggles(scenario.system, config, error)) {
    return false;
  }
  if (scenario.planahead > 0.0) {
    config->planahead = scenario.planahead;
  }
  if (scenario.oe_probability_threshold >= 0.0) {
    config->oe_probability_threshold = scenario.oe_probability_threshold;
  }
  return true;
}

// --- InflatedPredictor -------------------------------------------------------

RuntimePrediction InflatedPredictor::Predict(const JobFeatures& features, double true_runtime) {
  RuntimePrediction p = inner_->Predict(features, true_runtime);
  if (factor_ == 1.0) {
    return p;  // Exact pass-through: the baseline fork must re-predict bit-identically.
  }
  p.distribution = p.distribution.Scaled(factor_);
  p.point_estimate *= factor_;
  return p;
}

void InflatedPredictor::RecordCompletion(const JobFeatures& features, double runtime) {
  inner_->RecordCompletion(features, runtime);
}

void InflatedPredictor::SaveState(SnapshotWriter& writer) const { inner_->SaveState(writer); }

void InflatedPredictor::RestoreState(SnapshotReader& reader) { inner_->RestoreState(reader); }

// --- TwinFork ----------------------------------------------------------------

TwinFork::TwinFork(const std::string& snapshot, const ClusterConfig& cluster, SystemKind kind,
                   const DistSchedulerConfig& live_config, const Scenario& scenario)
    : scenario_(scenario), cluster_(cluster) {
  obs::SpeculativeScope suppress;
  if (kind == SystemKind::kPrio) {
    error_ = "digital twin supports the DistributionScheduler family only";
    return;
  }
  // The predictor stack must mirror the live system's so the "predict"
  // section's kind tag matches on restore; the inflation wrapper is
  // snapshot-transparent on top.
  if (kind == SystemKind::kPointPerfEst) {
    inner_predictor_ = std::make_unique<PerfectPredictor>();
  } else {
    inner_predictor_ = std::make_unique<ThreeSigmaPredictor>();
  }
  predictor_ = std::make_unique<InflatedPredictor>(
      inner_predictor_.get(), scenario.padding * scenario.predictor_inflation);
  sched_ = std::make_unique<DistributionScheduler>(cluster_, predictor_.get(), live_config);
  SimOptions options;
  options.speculative = true;
  sim_ = std::make_unique<Simulator>(cluster_, sched_.get(), std::vector<JobSpec>{}, options);
  std::string err;
  if (!sim_->TryRestoreStateFromBuffer(snapshot, &err)) {
    error_ = "fork restore failed: " + err;
    return;
  }
  ApplyScenario();
  ok_ = error_.empty();
}

void TwinFork::ApplyScenario() {
  // 1. Policy-config overrides, applied at the (parked) cycle boundary.
  if (scenario_.HasConfigOverride()) {
    DistSchedulerConfig config = sched_->config();
    if (!ApplyConfigOverrides(scenario_, &config, &error_)) {
      return;
    }
    sched_->UpdateConfig(config);
  }

  // 2. Arrival surge: replay the trailing window's arrivals as future clones
  // so the speculative arrival rate is ~surge x the recent live rate.
  if (scenario_.arrival_surge > 1.0) {
    const Time now = sim_->now();
    // Copies, not pointers: each InjectJob below appends to the simulator's
    // job records these specs live in, which can reallocate them.
    std::vector<JobSpec> recent;
    JobId max_id = 0;
    sim_->ForEachJob([&](const JobRecord& job) {
      max_id = std::max(max_id, job.spec.id);
      if (job.spec.submit_time > now - scenario_.surge_window && job.spec.submit_time <= now) {
        recent.push_back(job.spec);
      }
    });
    if (!recent.empty()) {
      const int clones = static_cast<int>(
          (scenario_.arrival_surge - 1.0) * static_cast<double>(recent.size()) + 0.5);
      for (int i = 0; i < clones; ++i) {
        JobSpec clone = recent[static_cast<size_t>(i) % recent.size()];
        const Time submit =
            now + scenario_.surge_window * (i + 1) / static_cast<double>(clones + 1);
        const double delta = submit - clone.submit_time;
        clone.id = max_id + 1 + i;
        clone.submit_time = submit;
        if (clone.deadline != kNever) {
          clone.deadline += delta;
        }
        clone.utility = ShiftUtility(clone.utility, delta);
        std::string err;
        if (!sim_->InjectJob(std::move(clone), &err)) {
          error_ = "surge overlay inject failed: " + err;
          return;
        }
      }
    }
  }

  // 3. Extra node failures: crash/repair pairs round-robin across groups.
  if (scenario_.extra_node_failures > 0) {
    const Time down = sim_->now() + scenario_.failure_after;
    const Time up = down + scenario_.failure_duration;
    std::vector<FaultEvent> events;
    events.reserve(static_cast<size_t>(scenario_.extra_node_failures) * 2);
    for (int i = 0; i < scenario_.extra_node_failures; ++i) {
      const int group = i % cluster_.num_groups();
      events.push_back(FaultEvent{down, FaultKind::kNodeDown, group, 1});
      events.push_back(FaultEvent{up, FaultKind::kNodeUp, group, 1});
    }
    std::string err;
    if (!sim_->InjectFaultOverlay(events, &err)) {
      error_ = "failure overlay inject failed: " + err;
      return;
    }
  }
}

ScenarioOutcome TwinFork::Speculate(int horizon_cycles) {
  obs::SpeculativeScope suppress;
  ScenarioOutcome out;
  out.name = scenario_.name;
  if (!ok_) {
    out.error = error_.empty() ? "fork not ok" : error_;
    return out;
  }
  out.queue_depth.reserve(static_cast<size_t>(std::max(horizon_cycles, 0)));
  for (int i = 0; i < horizon_cycles; ++i) {
    if (!sim_->Step()) {
      break;  // Drained (or an open run with no further arrivals to speculate on).
    }
    out.queue_depth.push_back(sim_->StateNow().pending_jobs);
    ++out.speculative_cycles;
  }
  out.pending_end = sim_->StateNow().pending_jobs;
  SimResult result = sim_->Finish();
  out.end_time = result.end_time;
  out.preemptions = result.total_preemptions;
  for (const JobRecord& job : result.jobs) {
    if (job.status == JobStatus::kCompleted) {
      ++out.completed;
      out.projected_utility += job.spec.utility.ValueAtCompletion(job.finish_time);
    }
    if (job.spec.is_slo()) {
      ++out.slo_jobs;
      if (job.MissedDeadline()) {
        ++out.deadline_misses;
      }
    }
  }
  out.slo_attainment =
      out.slo_jobs > 0
          ? 1.0 - static_cast<double>(out.deadline_misses) / static_cast<double>(out.slo_jobs)
          : 1.0;
  out.ok = true;
  ok_ = false;  // Spent.
  return out;
}

// --- WhatIfReport ------------------------------------------------------------

std::string WhatIfReport::ToText() const {
  std::string out = "whatif fork_cycle=" + std::to_string(fork_cycle) +
                    " fork_time=" + FmtD(fork_time) +
                    " horizon=" + std::to_string(horizon_cycles) +
                    " scenarios=" + std::to_string(outcomes.size()) + "\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioOutcome& o = outcomes[i];
    out += "outcome idx=" + std::to_string(i) + " name=" + o.name;
    if (!o.ok) {
      out += " ok=0 error=" + o.error + "\n";
      continue;
    }
    out += " ok=1 utility=" + FmtD(o.projected_utility) +
           " completed=" + std::to_string(o.completed) +
           " misses=" + std::to_string(o.deadline_misses) +
           " slo_jobs=" + std::to_string(o.slo_jobs) + " slo=" + FmtD(o.slo_attainment) +
           " preempt=" + std::to_string(o.preemptions) +
           " pending_end=" + std::to_string(o.pending_end) +
           " cycles=" + std::to_string(o.speculative_cycles) +
           " end_time=" + FmtD(o.end_time) + " queue=";
    for (size_t q = 0; q < o.queue_depth.size(); ++q) {
      if (q > 0) {
        out += ';';
      }
      out += std::to_string(o.queue_depth[q]);
    }
    out += "\n";
  }
  const std::string best_name =
      outcomes.empty() ? "none"
                       : (best_index == 0 ? "baseline" : outcomes[static_cast<size_t>(best_index)].name);
  out += "advisor best=" + std::to_string(best_index) + " name=" + best_name +
         " gain=" + FmtD(best_gain) + " applied=" + std::string(applied ? "1" : "0") + "\n";
  return out;
}

// --- Advisor -----------------------------------------------------------------

namespace {

// Lexicographic "is `a` strictly better than `b`": projected utility, then
// SLO attainment, then fewer preemptions. Ties keep the lower index (the
// caller scans in index order), so ranking is deterministic.
bool OutcomeBetter(const ScenarioOutcome& a, const ScenarioOutcome& b) {
  if (a.projected_utility != b.projected_utility) {
    return a.projected_utility > b.projected_utility;
  }
  if (a.slo_attainment != b.slo_attainment) {
    return a.slo_attainment > b.slo_attainment;
  }
  return a.preemptions < b.preemptions;
}

}  // namespace

void Advisor::Evaluate(WhatIfReport* report, const std::vector<Scenario>& scenarios,
                       DistributionScheduler* live_sched) {
  ++state_.sweeps;
  state_.last_sweep_cycle = report->fork_cycle;
  if (report->outcomes.empty()) {
    return;
  }
  int best = 0;
  for (int i = 1; i < static_cast<int>(report->outcomes.size()); ++i) {
    const ScenarioOutcome& o = report->outcomes[static_cast<size_t>(i)];
    const ScenarioOutcome& b = report->outcomes[static_cast<size_t>(best)];
    if (o.ok && (!b.ok || OutcomeBetter(o, b))) {
      best = i;
    }
  }
  report->best_index = best;
  const ScenarioOutcome& baseline = report->outcomes[0];
  const double base_utility = baseline.ok ? baseline.projected_utility : 0.0;
  report->best_gain =
      report->outcomes[static_cast<size_t>(best)].projected_utility - base_utility;
  state_.last_best = best == 0 ? "baseline" : report->outcomes[static_cast<size_t>(best)].name;
  state_.last_gain = report->best_gain;
  if (best == 0 || report->best_gain < min_gain_) {
    return;
  }
  ++state_.recommendations;
  if (!auto_apply_ || live_sched == nullptr) {
    return;
  }
  // Outcome i corresponds to scenarios[i - 1] (index 0 is the implicit
  // baseline). Only config overrides transfer to the live run — perturbation
  // overlays describe hypothetical conditions, not policy.
  TS_CHECK_LE(static_cast<size_t>(best), scenarios.size());
  const Scenario& winner = scenarios[static_cast<size_t>(best - 1)];
  if (!winner.HasConfigOverride()) {
    return;
  }
  DistSchedulerConfig config = live_sched->config();
  std::string err;
  if (!ApplyConfigOverrides(winner, &config, &err)) {
    return;
  }
  live_sched->UpdateConfig(config);
  report->applied = true;
  ++state_.applied;
  state_.has_applied_config = true;
  state_.applied_scenario = winner.ConfigOverrides();
}

std::string AdvisorState::ToText(bool auto_apply) const {
  std::string out = "advisor auto_apply=" + std::string(auto_apply ? "1" : "0") +
                    " sweeps=" + std::to_string(sweeps) +
                    " recommendations=" + std::to_string(recommendations) +
                    " applied=" + std::to_string(applied) +
                    " last_cycle=" + std::to_string(last_sweep_cycle) + " last_best=" + last_best +
                    " last_gain=" + FmtD(last_gain) + " applied_config=";
  out += has_applied_config ? applied_scenario.Describe() : "none";
  out += "\n";
  return out;
}

namespace {

// The applied scenario travels as its Describe() text (`applied_spec`).
template <typename Io, typename State>
void WalkAdvisorState(Io& io, State& state, std::string& applied_spec) {
  io.VarInt(state.sweeps);
  io.VarInt(state.recommendations);
  io.VarInt(state.applied);
  io.Fixed64(state.last_sweep_cycle);
  io.String(state.last_best);
  io.Double(state.last_gain);
  io.Bool(state.has_applied_config);
  io.String(applied_spec);
}

}  // namespace

void Advisor::SaveState(SnapshotWriter& writer) const {
  std::string spec = state_.applied_scenario.Describe();
  WalkAdvisorState(writer, state_, spec);
}

void Advisor::RestoreState(SnapshotReader& reader, DistributionScheduler* live_sched) {
  state_ = AdvisorState{};
  std::string spec;
  WalkAdvisorState(reader, state_, spec);
  std::string err;
  if (!ParseScenario(spec, &state_.applied_scenario, &err)) {
    // E.g. a spec recorded with a key this build no longer accepts: refuse
    // the snapshot rather than resume under a policy it did not record.
    state_.has_applied_config = false;
    reader.Fail("advisor applied scenario: " + err);
    return;
  }
  if (!state_.has_applied_config || live_sched == nullptr) {
    return;
  }
  // A resumed process is constructed with its original flags; re-apply the
  // recorded overrides so the live scheduler resumes under the advised
  // policy. (Derived solver caches rebuild from scratch — decisions stay
  // policy-correct, though the first post-resume cycle re-solves.)
  DistSchedulerConfig config = live_sched->config();
  if (!ApplyConfigOverrides(state_.applied_scenario, &config, &err)) {
    return;
  }
  live_sched->UpdateConfig(config);
}

// --- WhatIfEngine ------------------------------------------------------------

WhatIfEngine::WhatIfEngine(const ClusterConfig& cluster, DistributionScheduler* live_sched,
                           TwinOptions options)
    : cluster_(cluster),
      live_sched_(live_sched),
      options_(std::move(options)),
      advisor_(options_.auto_apply, options_.min_gain) {
  TS_CHECK(live_sched_ != nullptr);
  if (live_sched_->config().solver_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(live_sched_->config().solver_threads);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  sweeps_counter_ = registry.GetCounter("twin.sweeps");
  forks_counter_ = registry.GetCounter("twin.forks");
  cycles_counter_ = registry.GetCounter("twin.speculative_cycles");
  recommendations_counter_ = registry.GetCounter("twin.recommendations");
  applied_counter_ = registry.GetCounter("twin.applied");
}

WhatIfReport WhatIfEngine::Run(Simulator& live, const std::vector<Scenario>& scenarios,
                               int horizon_cycles) {
  TS_OBS_SPAN("twin.sweep", obs::Phase::kOther);
  const double wall_start = WallSeconds();
  WhatIfReport report;
  {
    const SimStateInfo info = live.StateNow();
    report.fork_cycle = info.cycles_completed;
    report.fork_time = info.now;
  }
  report.horizon_cycles = horizon_cycles > 0 ? horizon_cycles : options_.horizon_cycles;
  const std::string snapshot = live.SaveStateToBuffer();
  // Config read fresh each sweep so prior auto-applies seed later forks.
  const DistSchedulerConfig live_config = live_sched_->config();

  const int n = static_cast<int>(scenarios.size()) + 1;  // Index 0: baseline.
  report.outcomes.resize(static_cast<size_t>(n));
  int64_t total_cycles = 0;
  auto run_one = [&](int index) {
    Scenario scenario;  // Default = identity (the baseline).
    if (index == 0) {
      scenario.name = "baseline";
    } else {
      scenario = scenarios[static_cast<size_t>(index - 1)];
    }
    TwinFork fork(snapshot, cluster_, options_.kind, live_config, scenario);
    report.outcomes[static_cast<size_t>(index)] = fork.Speculate(report.horizon_cycles);
  };
  // Outcomes land in pre-sized index slots, so the merge order never depends
  // on thread count.
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, [&](int /*worker*/, int index) { run_one(index); });
  } else {
    for (int i = 0; i < n; ++i) {
      run_one(i);
    }
  }
  for (const ScenarioOutcome& o : report.outcomes) {
    total_cycles += o.speculative_cycles;
  }

  const int64_t rec_before = advisor_.state().recommendations;
  const int64_t applied_before = advisor_.state().applied;
  advisor_.Evaluate(&report, scenarios, live_sched_);

  // Instrumentation lands outside any suppression scope (the forks' scopes
  // closed with them), so live observability sees the sweep as one unit.
  sweeps_counter_->Increment();
  forks_counter_->Add(n);
  cycles_counter_->Add(total_cycles);
  recommendations_counter_->Add(advisor_.state().recommendations - rec_before);
  applied_counter_->Add(advisor_.state().applied - applied_before);
  obs::CycleProfiler::Global().AddTwinSweep(WallSeconds() - wall_start);
  return report;
}

bool WhatIfEngine::MaybeAdvise(Simulator& live, uint64_t cycles_completed) {
  if (options_.advise_every <= 0) {
    return false;
  }
  if (cycles_completed < last_advise_cycle_ + static_cast<uint64_t>(options_.advise_every)) {
    return false;
  }
  last_advise_cycle_ = cycles_completed;
  std::vector<Scenario> scenarios = options_.advisory_scenarios;
  if (scenarios.empty()) {
    scenarios = DefaultScenarios();
  }
  Run(live, scenarios, options_.horizon_cycles);
  return true;
}

void WhatIfEngine::SaveState(SnapshotWriter& writer) const {
  writer.BeginSection("twin", 1);
  writer.Fixed64(last_advise_cycle_);
  advisor_.SaveState(writer);
  writer.EndSection();
}

void WhatIfEngine::RestoreState(SnapshotReader& reader) {
  if (!reader.BeginSection("twin")) {
    return;
  }
  reader.Fixed64(last_advise_cycle_);
  advisor_.RestoreState(reader, live_sched_);
  reader.EndSection();
}

}  // namespace threesigma
