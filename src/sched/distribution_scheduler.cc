#include "src/sched/distribution_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/solver/milp.h"

namespace threesigma {
namespace {

// Options below this expected utility are pruned from the MILP (§4.3.6).
constexpr double kMinOptionUtility = 1e-6;

// "sched" section layout version; RestoreState reads no other. v6: the root
// basis is kept by key (per-job statuses and the capacity-row array) instead
// of by position. v7: jobs are keyed by id, and a job's spec and run state
// are left to the simulator's records. v8: no expected-capacity rows or
// per-job survival vectors (RunCycle recomputes Eq. 3 at every solve).
constexpr uint32_t kSchedSectionVersion = 8;

// The predictor features of a job's current attempt: its spec's features,
// plus "attempts=k" after k > 0 fault restarts, so restarted attempts build
// their own history population.
JobFeatures AttemptFeatures(const JobSpec& spec, int attempts) {
  JobFeatures features = spec.features;
  if (attempts > 0) {
    features.push_back("attempts=" + std::to_string(attempts));
  }
  return features;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> d = std::chrono::steady_clock::now() - t0;
  return d.count();
}

}  // namespace

DistributionScheduler::DistributionScheduler(const ClusterConfig& cluster,
                                             RuntimePredictor* predictor,
                                             DistSchedulerConfig config)
    : cluster_(cluster),
      predictor_(predictor),
      config_(std::move(config)),
      valuation_(config_.crosscheck) {
  TS_CHECK(predictor_ != nullptr);
  TS_CHECK_GT(config_.num_start_slots, 0);
  TS_CHECK_GT(config_.planahead, 0.0);
}

void DistributionScheduler::UpdateConfig(const DistSchedulerConfig& config) {
  TS_CHECK_GT(config.num_start_slots, 0);
  TS_CHECK_GT(config.planahead, 0.0);
  const bool dist_flip = config.use_distribution != config_.use_distribution;
  config_ = config;

  // The planned options and valuation tables encode the old (planahead,
  // slots, distribution) policy; drop them and let the next cycle rebuild
  // from scratch.
  for (auto& [id, info] : jobs_) {
    (void)id;
    info.planned_group = -1;
    info.planned_start = kNever;
    if (dist_flip) {
      PredictSchedDist(info);
    }
    // Fault-restarted jobs keep their forced OE decay (the restart verdict
    // outlives any policy change); everyone else re-runs the adaptive gate.
    ApplyOverestimateDecay(info, /*force=*/info.attempts > 0);
  }
  valuation_ = ValuationEngine(config_.crosscheck);
  ++basis_epoch_;  // Every job's kept statuses go stale...
  capacity_status_.clear();  // ...and no basis is kept.
  dirty_ = true;
  last_solve_ = -1e18;
}

void DistributionScheduler::PredictSchedDist(JobInfo& info) const {
  const RuntimePrediction prediction =
      predictor_->Predict(AttemptFeatures(info.spec, info.attempts), info.spec.true_runtime);
  if (config_.use_distribution) {
    info.sched_dist = prediction.distribution;
  } else {
    info.sched_dist = EmpiricalDistribution::Point(prediction.point_estimate);
  }
}

void DistributionScheduler::ApplyOverestimateDecay(JobInfo& info, bool force) const {
  // §4.2.2/§4.2.3: over-estimate handling turns the SLO utility cliff into a
  // linear decay. Adaptive mode enables it only when the history claims the
  // job cannot meet its deadline window — the tell-tale of an over-estimate.
  // `force` skips the adaptive gate (fault restarts are treated as likely
  // mis-estimates: the pre-restart estimate ignores the lost work).
  const JobSpec& spec = info.spec;
  info.effective_utility = spec.utility;
  if (!(spec.is_slo() && spec.deadline != kNever && config_.overestimate_handling)) {
    return;
  }
  const double window = spec.deadline - spec.submit_time;
  if (window <= 0.0) {
    return;
  }
  bool enable = true;
  if (!force && config_.adaptive_oe) {
    const double p_meet = info.sched_dist.CdfAtMost(window);
    enable = p_meet < config_.oe_probability_threshold;
  }
  if (enable) {
    // The decay must span the runtimes the history considers plausible,
    // or the "impossible" job would still value to zero everywhere.
    const double span = std::max(window, info.sched_dist.MaxValue());
    const double decay = std::max(span * config_.oe_decay_factor, config_.cycle_period);
    info.effective_utility = spec.utility.WithOverestimateDecay(decay);
  }
}

void DistributionScheduler::OnJobArrival(const JobSpec& spec, Time now) {
  JobInfo info;
  info.spec = spec;
  PredictSchedDist(info);
  ApplyOverestimateDecay(info, /*force=*/false);

  valuation_.InvalidateJob(spec.id);  // A reused id must not see stale tables.
  jobs_[spec.id] = std::move(info);
  pending_.push_back(spec.id);
  dirty_ = true;
  (void)now;
}

void DistributionScheduler::OnJobStarted(JobId id, int group, Time now) {
  auto it = jobs_.find(id);
  TS_CHECK(it != jobs_.end());
  JobInfo& info = it->second;
  info.group = group;
  info.start_time = now;
  info.underest_level = -1;
  info.underest_finish = kNever;
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
  dirty_ = true;
}

void DistributionScheduler::OnJobFinished(JobId id, Time now, Duration observed_runtime) {
  auto it = jobs_.find(id);
  TS_CHECK(it != jobs_.end());
  predictor_->RecordCompletion(AttemptFeatures(it->second.spec, it->second.attempts),
                               observed_runtime);
  valuation_.InvalidateJob(id);
  jobs_.erase(it);
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
  dirty_ = true;
  (void)now;
}

void DistributionScheduler::OnJobPreempted(JobId id, Time now) {
  auto it = jobs_.find(id);
  TS_CHECK(it != jobs_.end());
  JobInfo& info = it->second;
  TS_CHECK_GE(info.group, 0);
  info.group = -1;
  info.start_time = kNever;
  info.underest_level = -1;
  info.underest_finish = kNever;
  info.planned_group = -1;
  info.planned_start = kNever;
  pending_.push_back(id);
  dirty_ = true;
  (void)now;
}

void DistributionScheduler::OnJobCancelled(JobId id, Time now) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return;
  }
  TS_CHECK_LT(it->second.group, 0);
  valuation_.InvalidateJob(id);
  jobs_.erase(it);
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
  dirty_ = true;
  (void)now;
}

void DistributionScheduler::OnJobFaultKilled(JobId id, Time now) {
  // Requeue exactly like a preemption...
  OnJobPreempted(id, now);

  // ...then fold the restart into the estimate. The pre-restart prediction
  // described a fresh run; attempt k of the same job is a different
  // population (the lost work must be redone, co-failure correlations, etc.),
  // so it gets its own feature key and history.
  auto it = jobs_.find(id);
  TS_CHECK(it != jobs_.end());
  JobInfo& info = it->second;
  ++info.attempts;
  PredictSchedDist(info);

  // §4.2.2 applied to restarts: whatever the history says, the deadline math
  // for this job is now off by the lost run — treat it as an over-estimate
  // candidate unconditionally so its utility decays instead of cliffing.
  ApplyOverestimateDecay(info, /*force=*/true);

  // Both valuation-table inputs (sched_dist, effective_utility — including
  // the forced OE-gate flip above) just changed.
  valuation_.InvalidateJob(id);
}

void DistributionScheduler::OnCapacityChanged(int group, int available_nodes, Time now) {
  // The last plan (and any solve-skip decision) was drawn against the old
  // capacity; force a full re-solve next cycle. RunCycle charges Eq. 3
  // consumption against the view's available nodes.
  dirty_ = true;
  (void)group;
  (void)available_nodes;
  (void)now;
}

void DistributionScheduler::UpdateUnderestimate(JobInfo& info, Time now) const {
  TS_CHECK_GE(info.group, 0);
  const double mult = info.spec.RuntimeMultiplier(info.group);
  const double max_known = info.sched_dist.MaxValue() * mult;
  const double elapsed = now - info.start_time;
  if (elapsed < max_known) {
    return;
  }
  // §4.2.1: once elapsed reaches the largest historical runtime, extend the
  // estimated finish by 2^t cycles, t = 0, 1, 2, ... on each expiry.
  if (info.underest_level < 0) {
    info.underest_level = 0;
    info.underest_finish = now + config_.cycle_period;
    return;
  }
  while (now >= info.underest_finish) {
    ++info.underest_level;
    info.underest_finish += std::pow(2.0, info.underest_level) * config_.cycle_period;
  }
}

void DistributionScheduler::ComputeRunningSurvival(const JobInfo& info, Time now,
                                                   std::vector<double>* out) const {
  TS_CHECK_GE(info.group, 0);
  const int slots = config_.num_start_slots;
  const double delta = config_.planahead / slots;
  out->resize(static_cast<size_t>(slots));
  if (info.underest_level >= 0) {
    // Under-estimated job: a point remaining-time estimate (exp-inc, §4.2.1).
    for (int i = 0; i < slots; ++i) {
      (*out)[static_cast<size_t>(i)] = now + i * delta < info.underest_finish ? 1.0 : 0.0;
    }
    return;
  }
  // Eq. 2: S(elapsed + offset | T > elapsed) = S(elapsed + offset) /
  // S(elapsed), in the scaled (on-this-group) time base.
  const double mult = info.spec.RuntimeMultiplier(info.group);
  const double elapsed = now - info.start_time;
  // Zero-copy conditional: both survival queries are prefix-mass lookups on
  // the job's cached tables. Lookups here are uncounted (counters cover the
  // valuation phase), so the counter stream is invariant to crosscheck reruns
  // of this method.
  const ValuationTables& tables = valuation_.Tables(
      info.spec.id, mult, info.sched_dist, info.effective_utility, /*counters=*/nullptr);
  const double s_elapsed = valuation_.Survival(tables, elapsed);
  if (s_elapsed <= 0.0) {
    // Raced past the max between updates; treat as one more cycle.
    for (int i = 0; i < slots; ++i) {
      (*out)[static_cast<size_t>(i)] = i * delta < config_.cycle_period ? 1.0 : 0.0;
    }
    return;
  }
  for (int i = 0; i < slots; ++i) {
    (*out)[static_cast<size_t>(i)] = valuation_.Survival(tables, elapsed + i * delta) / s_elapsed;
  }
}

void DistributionScheduler::ValueJobOptions(const JobInfo& info, Time now,
                                            ValuationCounters* counters, JobValuation* out) {
  out->Clear();
  const int num_groups = cluster_.num_groups();
  const int slots = config_.num_start_slots;
  const double delta = config_.planahead / slots;
  const double k = info.spec.num_tasks;
  std::vector<double>& survival = survival_scratch_;
  survival.resize(static_cast<size_t>(slots));
  for (int g = 0; g < num_groups; ++g) {
    if (info.spec.num_tasks > cluster_.group(g).node_count) {
      continue;
    }
    const ValuationTables& tables =
        valuation_.Tables(info.spec.id, info.spec.RuntimeMultiplier(g), info.sched_dist,
                          info.effective_utility, counters);
    // Survival at each slot offset (shared across start slots).
    for (int d = 0; d < slots; ++d) {
      survival[static_cast<size_t>(d)] = valuation_.Survival(tables, d * delta);
    }
    // A gang occupies its nodes with certainty at the instant it starts,
    // even if the distribution carries (clamped) zero-runtime atoms.
    survival[0] = 1.0;
    for (int s = 0; s < slots; ++s) {
      const Time start = now + s * delta;
      const double eu =
          valuation_.ExpectedUtility(tables, info.effective_utility, start, counters);
      if (eu <= kMinOptionUtility) {
        continue;
      }
      ValuedOption opt;
      opt.group = g;
      opt.slot = s;
      opt.eu = eu;
      opt.cons_offset = out->consumption.size();
      opt.cons_len = slots - s;
      for (int i = s; i < slots; ++i) {
        out->consumption.push_back(k * survival[static_cast<size_t>(i - s)]);
      }
      out->options.push_back(opt);
    }
  }
}

CycleResult DistributionScheduler::RunCycle(Time now, const ClusterStateView& state) {
  const auto cycle_start = std::chrono::steady_clock::now();
  CycleResult result;
  TS_CHECK(state.cluster != nullptr);

  // Solve-skip: with unchanged state, no deferred start coming due, and a
  // recent solve, this cycle cannot improve on the previous plan.
  if (!dirty_ && now < last_solve_ + config_.max_solve_skip) {
    bool plan_due = false;
    for (JobId id : pending_) {
      const JobInfo& info = jobs_.at(id);
      if (info.planned_start != kNever && info.planned_start <= now + config_.cycle_period) {
        plan_due = true;
        break;
      }
    }
    if (!plan_due) {
      result.cycle_seconds = SecondsSince(cycle_start);
      return result;
    }
  }
  dirty_ = false;
  last_solve_ = now;
  const int num_groups = cluster_.num_groups();
  const int slots = config_.num_start_slots;
  const double delta = config_.planahead / slots;

  // --- 1. Running jobs: conditional consumption per (group, slot). ---------
  // Eq. 3 from the running set alone: consumed_[g][i] = Σ k·S_i over the
  // jobs running on g, each S conditioned on its elapsed time (Eq. 2),
  // summed in view order into freshly zeroed rows.
  struct PreemptCandidate {
    JobId id;
    JobInfo* info;
    int group;
    double k;
    std::vector<double> survival;  // Per slot.
    double cost;
  };
  std::vector<PreemptCandidate> preemptables;
  {
    TS_OBS_SPAN("sched.capacity", obs::Phase::kCapacity);
    consumed_.assign(static_cast<size_t>(num_groups),
                     std::vector<double>(static_cast<size_t>(slots), 0.0));
    std::vector<double> survival;
    for (const RunningJobView& r : state.running) {
      auto it = jobs_.find(r.id);
      TS_CHECK_MSG(it != jobs_.end(), "unknown running job " << r.id);
      JobInfo& info = it->second;
      TS_CHECK_MSG(info.group == r.group, "group mismatch for job " << r.id);
      UpdateUnderestimate(info, now);
      ComputeRunningSurvival(info, now, &survival);
      const double k = info.spec.num_tasks;
      std::vector<double>& row = consumed_[static_cast<size_t>(r.group)];
      for (int i = 0; i < slots; ++i) {
        row[static_cast<size_t>(i)] += k * survival[static_cast<size_t>(i)];
      }
      // Preemption candidates: running best-effort jobs (§4.3.5).
      if (config_.enable_preemption && r.type == JobType::kBestEffort) {
        preemptables.push_back(PreemptCandidate{
            r.id, &info, r.group, static_cast<double>(r.num_tasks), std::move(survival),
            config_.preemption_cost_factor * info.effective_utility.peak_value()});
      }
    }
  }

  // --- 2. Pending selection and abandonment. ------------------------------
  std::vector<JobId> considered;
  {
    TS_OBS_SPAN("sched.select", obs::Phase::kSelect);
    // (key, id) pairs compared by key only: std::sort sees the comparisons
    // a comparator reading the key out of jobs_ would, so the order is the
    // same without a map lookup per comparison.
    std::vector<std::pair<Time, JobId>> slo;  // (deadline, id)
    std::vector<std::pair<Time, JobId>> be;   // (submit time, id)
    for (JobId id : pending_) {
      JobInfo& info = jobs_.at(id);
      // A job whose utility is already zero for *any* completion time can
      // never contribute; retire it (its deadline + decay window passed).
      if (info.spec.is_slo() && info.effective_utility.ValueAtCompletion(now) <= 0.0) {
        result.abandon.push_back(id);
        continue;
      }
      if (info.spec.is_slo()) {
        slo.emplace_back(info.spec.deadline, id);
      } else {
        be.emplace_back(info.spec.submit_time, id);
      }
    }
    const auto by_key = [](const std::pair<Time, JobId>& a, const std::pair<Time, JobId>& b) {
      return a.first < b.first;
    };
    std::sort(slo.begin(), slo.end(), by_key);
    std::sort(be.begin(), be.end(), by_key);
    for (const auto& [key, id] : slo) {
      considered.push_back(id);
    }
    for (const auto& [key, id] : be) {
      considered.push_back(id);
    }
    if (static_cast<int>(considered.size()) > config_.max_pending_considered) {
      considered.resize(config_.max_pending_considered);
    }
    for (JobId id : result.abandon) {
      pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
      valuation_.InvalidateJob(id);
      jobs_.erase(id);
    }
  }
  if (considered.empty()) {
    result.cycle_seconds = SecondsSince(cycle_start);
    return result;
  }

  // --- 3. Options and their valuation (Eq. 1). -----------------------------
  struct Option {
    JobId job;
    JobInfo* info = nullptr;
    int group;
    int slot;  // Start slot index; slot 0 == start now.
    double eu;
    // Expected node consumption at slot offsets [0, cons_len); points into
    // the per-job staging arena (value_stage_), stable for the cycle.
    const double* cons = nullptr;
    int cons_len = 0;
    int demand_row = -1;
    int var = -1;  // MILP indicator variable.
  };
  std::vector<Option> options;
  // A job with at least one option and its options' range; its demand row
  // is its rank in job-id order.
  struct DemandRow {
    JobId job;
    JobInfo* info;
    size_t begin, end;
  };
  std::vector<DemandRow> demand;
  // Remaining expected capacity per (group, slot), at g * slots + slot.
  // Supply is the *available* node count (nominal minus crashed nodes) so
  // fault churn shrinks what the MILP may hand out; with no faults this
  // equals the nominal count.
  std::vector<double> cap(static_cast<size_t>(num_groups * slots));
  {
  TS_OBS_SPAN("sched.value", obs::Phase::kValuation);

  const int n = static_cast<int>(considered.size());
  if (static_cast<int>(value_stage_.size()) < n) {
    value_stage_.resize(static_cast<size_t>(n));
  }
  // Jobs in `considered` order, groups ascending, start slots ascending:
  // that fixes both the option order and the table cache's hit/miss stream.
  ValuationCounters counters;
  for (int i = 0; i < n; ++i) {
    const JobId id = considered[static_cast<size_t>(i)];
    JobValuation& staged = value_stage_[static_cast<size_t>(i)];
    JobInfo& info = jobs_.at(id);
    ValueJobOptions(info, now, &counters, &staged);
    if (!staged.options.empty()) {
      const size_t begin = options.size();
      demand.push_back(DemandRow{id, &info, begin, begin + staged.options.size()});
    }
    for (const ValuedOption& vo : staged.options) {
      Option opt;
      opt.job = id;
      opt.info = &info;
      opt.group = vo.group;
      opt.slot = vo.slot;
      opt.eu = vo.eu;
      opt.cons = staged.consumption.data() + vo.cons_offset;
      opt.cons_len = vo.cons_len;
      options.push_back(opt);
    }
  }
  result.valuation_cache_hits = counters.cache_hits;
  result.valuation_cache_misses = counters.cache_misses;
  result.valuation_kernel_calls = counters.kernel_calls;

  for (int g = 0; g < num_groups; ++g) {
    const double supply = state.AvailableNodes(g);
    for (int i = 0; i < slots; ++i) {
      cap[static_cast<size_t>(g * slots + i)] =
          supply - consumed_[static_cast<size_t>(g)][static_cast<size_t>(i)];
    }
  }
  }  // sched.value span.

  // --- 4. MILP compilation (§4.3.3), straight into the solver's core. ----
  // Columns: the options in order, then the preemption candidates. Rows: the
  // demand rows in job-id order, then the capacity rows that carry an entry,
  // by key g * slots + slot. A column's entries (its demand row, then its
  // capacity rows by ascending key) thus ascend by row.
  LpCore core;
  std::vector<int> preempt_vars(preemptables.size(), -1);
  std::vector<int> capacity_keys;  // In row order.
  {
  TS_OBS_SPAN("sched.build", obs::Phase::kBuild);
  // The capacity row of each key, -1 where the row is empty (the count pass
  // marks a used key 0 until the rows are numbered).
  std::vector<int> capacity_row(static_cast<size_t>(num_groups * slots), -1);
  std::sort(demand.begin(), demand.end(),
            [](const DemandRow& a, const DemandRow& b) { return a.job < b.job; });
  // Count pass: mark every capacity row an option consumes from or a
  // preemption credits back to (§4.3.5).
  for (const Option& opt : options) {
    for (int d = 0; d < opt.cons_len; ++d) {
      if (opt.cons[d] > 1e-9) {
        capacity_row[static_cast<size_t>(opt.group * slots + opt.slot + d)] = 0;
      }
    }
  }
  for (const PreemptCandidate& cand : preemptables) {
    for (int i = 0; i < slots; ++i) {
      if (cand.k * cand.survival[i] > 1e-9) {
        capacity_row[static_cast<size_t>(cand.group * slots + i)] = 0;
      }
    }
  }

  LpCoreBuilder builder;
  // Demand rows: at most one option per job.
  for (size_t r = 0; r < demand.size(); ++r) {
    const int row = builder.NewRow(RowSense::kLessEqual, 1.0);
    for (size_t o = demand[r].begin; o < demand[r].end; ++o) {
      options[o].demand_row = row;
    }
  }
  // Capacity rows (Eq. 3).
  for (size_t key = 0; key < capacity_row.size(); ++key) {
    if (capacity_row[key] >= 0) {
      capacity_row[key] = builder.NewRow(RowSense::kLessEqual, cap[key]);
      capacity_keys.push_back(static_cast<int>(key));
    }
  }
  for (Option& opt : options) {
    opt.var = builder.NewColumn(0.0, 1.0, opt.eu);
    builder.AddEntry(opt.demand_row, 1.0);
    for (int d = 0; d < opt.cons_len; ++d) {
      if (opt.cons[d] > 1e-9) {
        builder.AddEntry(capacity_row[static_cast<size_t>(opt.group * slots + opt.slot + d)],
                         opt.cons[d]);
      }
    }
  }
  // Preemption variables: credit the victim's expected consumption back to
  // capacity, pay its cost in the objective (§4.3.5).
  for (size_t p = 0; p < preemptables.size(); ++p) {
    const PreemptCandidate& cand = preemptables[p];
    preempt_vars[p] = builder.NewColumn(0.0, 1.0, -cand.cost);
    for (int i = 0; i < slots; ++i) {
      const double credit = cand.k * cand.survival[i];
      if (credit > 1e-9) {
        builder.AddEntry(capacity_row[static_cast<size_t>(cand.group * slots + i)], -credit);
      }
    }
  }
  core = builder.Build();
  }  // sched.build span.

  result.milp_variables = core.num_variables;
  result.milp_rows = core.num_rows;

  if (options.empty()) {
    result.cycle_seconds = SecondsSince(cycle_start);
    return result;
  }

  // Warm start: re-propose last cycle's plan (§4.3.6's seeding).
  std::vector<double> warm(static_cast<size_t>(core.num_variables), 0.0);
  bool any_warm = false;
  std::vector<int> int_vars;
  {
  TS_OBS_SPAN("sched.warm_start", obs::Phase::kBuild);
  for (const Option& opt : options) {
    const JobInfo& info = *opt.info;
    if (info.planned_group != opt.group || info.planned_start == kNever) {
      continue;
    }
    // Pick the slot whose start time is nearest the previously planned start.
    const Time start = now + opt.slot * delta;
    if (std::fabs(start - info.planned_start) <= delta * 0.5 + 1e-9) {
      warm[opt.var] = 1.0;
      any_warm = true;
    }
  }

  int_vars.reserve(options.size() + preempt_vars.size());
  for (const Option& o : options) {
    int_vars.push_back(o.var);
  }
  for (int v : preempt_vars) {
    int_vars.push_back(v);
  }
  }  // sched.warm_start span.

  MilpOptions milp_options;
  milp_options.time_limit_seconds = config_.solver_time_limit_seconds;
  milp_options.max_nodes = config_.solver_max_nodes;
  if (any_warm) {
    milp_options.warm_start = warm;
  }
  // The kept root basis, mapped onto this model by key: a surviving column
  // or row keeps its status, a new column starts at its lower bound and a
  // new row's slack basic (the JobInfo defaults). The simplex repairs the
  // basic count, and starts from whatever mix of feasibility this leaves.
  if (!capacity_status_.empty()) {
    std::vector<BasisStatus>& status = milp_options.root_basis.status;
    status.reserve(static_cast<size_t>(core.num_variables + core.num_rows));
    for (const Option& opt : options) {
      const JobInfo& info = *opt.info;
      status.push_back(info.basis_epoch == basis_epoch_
                           ? info.option_status[static_cast<size_t>(opt.group * slots + opt.slot)]
                           : BasisStatus::kAtLower);
    }
    for (const PreemptCandidate& cand : preemptables) {
      status.push_back(cand.info->basis_epoch == basis_epoch_ ? cand.info->preempt_status
                                                              : BasisStatus::kAtLower);
    }
    for (const DemandRow& d : demand) {
      status.push_back(d.info->basis_epoch == basis_epoch_ ? d.info->demand_status
                                                           : BasisStatus::kBasic);
    }
    for (const int key : capacity_keys) {
      status.push_back(capacity_status_[static_cast<size_t>(key)]);
    }
    TS_CHECK_EQ(status.size(), static_cast<size_t>(core.num_variables + core.num_rows));
  }
  MilpSolver solver(std::move(core), std::move(int_vars));
  const auto solve_start = std::chrono::steady_clock::now();
  MilpSolution solution;
  {
    TS_OBS_SPAN("sched.solve", obs::Phase::kSolve);
    solution = solver.Solve(milp_options);
  }
  result.solver_seconds = SecondsSince(solve_start);
  if (!solution.root_basis.empty()) {
    if (config_.crosscheck) {
      // The root, warm or cold, must reach a cold re-solve's optimum.
      const LpSolution cold = SolveLp(solver.core());
      TS_CHECK(cold.status == LpStatus::kOptimal);
      TS_CHECK_MSG(std::fabs(solution.root_objective - cold.objective) <=
                       1e-9 * std::max(1.0, std::fabs(cold.objective)),
                   "root LP objective " << solution.root_objective << " vs cold re-solve "
                                        << cold.objective);
    }
    // Keep the root basis by key for the next cycle's mapping.
    ++basis_epoch_;
    const std::vector<BasisStatus>& status = solution.root_basis.status;
    const auto keyed = [&](JobInfo& info) -> JobInfo& {
      if (info.basis_epoch != basis_epoch_) {
        info.option_status.assign(static_cast<size_t>(num_groups * slots), BasisStatus::kAtLower);
        info.demand_status = BasisStatus::kBasic;
        info.preempt_status = BasisStatus::kAtLower;
        info.basis_epoch = basis_epoch_;
      }
      return info;
    };
    for (const Option& opt : options) {
      keyed(*opt.info).option_status[static_cast<size_t>(opt.group * slots + opt.slot)] =
          status[static_cast<size_t>(opt.var)];
    }
    for (size_t p = 0; p < preemptables.size(); ++p) {
      keyed(*preemptables[p].info).preempt_status =
          status[static_cast<size_t>(preempt_vars[p])];
    }
    size_t row = static_cast<size_t>(solver.core().num_variables);
    for (const DemandRow& d : demand) {
      keyed(*d.info).demand_status = status[row++];
    }
    capacity_status_.assign(static_cast<size_t>(num_groups * slots), BasisStatus::kBasic);
    for (const int key : capacity_keys) {
      capacity_status_[static_cast<size_t>(key)] = status[row++];
    }
  }
  result.milp_nodes = solution.nodes_explored;
  result.lp_pivots = solution.lp_iterations;
  result.ftran = solution.ftran_count;
  result.btran = solution.btran_count;
  result.refactorizations = solution.refactorizations;
  result.warm_started_nodes = solution.warm_started_nodes;
  result.root_pivots = solution.root_iterations;
  result.root_warm = solution.root_warm ? 1 : 0;
  result.milp_max_queue_depth = solution.max_queue_depth;
  result.milp_incumbent_improvements = solution.incumbent_improvements;

  if (solution.status != MilpStatus::kInfeasible) {
    TS_OBS_SPAN("sched.place", obs::Phase::kPlacement);
    // Clear previous plans; they are re-established from this solution.
    for (JobId id : considered) {
      JobInfo& info = jobs_.at(id);
      info.planned_group = -1;
      info.planned_start = kNever;
    }
    for (const Option& opt : options) {
      if (solution.values[opt.var] < 0.5) {
        continue;
      }
      JobInfo& info = *opt.info;
      if (opt.slot == 0) {
        result.start.push_back(Placement{opt.job, opt.group});
      } else {
        info.planned_group = opt.group;
        info.planned_start = now + opt.slot * delta;
        result.deferred.push_back(PlannedPlacement{opt.job, opt.group, info.planned_start});
      }
    }
    for (size_t p = 0; p < preemptables.size(); ++p) {
      if (solution.values[preempt_vars[p]] >= 0.5) {
        result.preempt.push_back(preemptables[p].id);
      }
    }
  }

  result.cycle_seconds = SecondsSince(cycle_start);
  return result;
}

template <typename Io, typename Self>
void DistributionScheduler::Walk(Io& io, Self& self) {
  io.Tag("3sigma-sched");
  io.Map(self.jobs_, [&](auto& id, auto& info) {
    io.VarInt(id);
    io.Nested(info.sched_dist);
    io.VarInt(info.underest_level);
    io.Double(info.underest_finish);
    io.VarInt(info.planned_group);
    io.Double(info.planned_start);
    io.Seq(info.option_status, [&](auto& st) { io.Enum(st, BasisStatus::kAtUpper); });
    io.Enum(info.demand_status, BasisStatus::kAtUpper);
    io.Enum(info.preempt_status, BasisStatus::kAtUpper);
    io.VarInt(info.basis_epoch);
  });
  io.Seq(self.pending_, [&](auto& id) { io.VarInt(id); });
  io.Bool(self.dirty_);
  io.Double(self.last_solve_);
  io.VarInt(self.basis_epoch_);
  io.Seq(self.capacity_status_, [&](auto& st) { io.Enum(st, BasisStatus::kAtUpper); });
}

void DistributionScheduler::SaveState(SnapshotWriter& writer) const {
  writer.BeginSection("sched", kSchedSectionVersion);
  Walk(writer, *this);
  // The valuation engine's cached key set. Tables themselves are rebuilt
  // from restored job state on resume (they are pure functions of it), so
  // only the keys need to be persisted for the resumed hit/miss stream to
  // stay byte-identical.
  valuation_.SaveState(writer);
  writer.EndSection();

  writer.BeginSection("predict", 1);
  predictor_->SaveState(writer);
  writer.EndSection();
}

void DistributionScheduler::RestoreState(SnapshotReader& reader) {
  uint32_t sched_version = 0;
  reader.BeginSection("sched", &sched_version);
  if (reader.ok() && sched_version != kSchedSectionVersion) {
    reader.Fail("unsupported sched section version " + std::to_string(sched_version));
    return;
  }
  Walk(reader, *this);
  // The keyed basis is indexed by g * slots + slot.
  const int num_groups = cluster_.num_groups();
  const size_t keyed_size =
      static_cast<size_t>(num_groups) * static_cast<size_t>(config_.num_start_slots);
  if (basis_epoch_ < 0 || (!capacity_status_.empty() && capacity_status_.size() != keyed_size)) {
    reader.Fail("keyed basis does not match this scheduler");
  }
  for (const auto& [id, info] : jobs_) {
    if (info.planned_group < -1 || info.planned_group >= num_groups) {
      reader.Fail("job " + std::to_string(id) + " planned group out of range");
    }
    if (info.basis_epoch > basis_epoch_ ||
        (info.basis_epoch == basis_epoch_ && info.option_status.size() != keyed_size)) {
      reader.Fail("job " + std::to_string(id) + " keyed basis shape mismatch");
    }
  }
  // The tables are rebuilt by OnJobsRestored, once the job state they are
  // pure functions of is whole again.
  restored_table_keys_ = ValuationEngine::ReadSavedKeys(reader);
  for (const auto& [job, scale] : restored_table_keys_) {
    if (!(scale > 0.0 && std::isfinite(scale))) {  // Scaled() requires it.
      reader.Fail("valuation scale out of range");
    }
  }
  reader.EndSection();

  reader.BeginSection("predict");
  predictor_->RestoreState(reader);
  reader.EndSection();
}

void DistributionScheduler::OnJobsRestored(const std::vector<const JobRecord*>& live,
                                           SnapshotReader& reader) {
  // The job table must hold exactly the live records (the simulator has
  // already validated each one and rejected duplicate ids).
  if (jobs_.size() != live.size() || !PendingQueueMatches(pending_, live)) {
    reader.Fail("scheduler job table does not match the simulator's live jobs");
    return;
  }
  for (const JobRecord* rec : live) {
    const auto it = jobs_.find(rec->spec.id);
    if (it == jobs_.end()) {
      reader.Fail("scheduler state disagrees with the simulator about job " +
                  std::to_string(rec->spec.id));
      return;
    }
    JobInfo& info = it->second;
    info.spec = rec->spec;
    info.group = rec->group;
    info.start_time = rec->start_time;
    info.attempts = rec->fault_kills;
    ApplyOverestimateDecay(info, /*force=*/info.attempts > 0);
  }
  // Rebuild the cached tables from the derived job state; a key whose job
  // exited between save and restore (impossible today, but harmless) is
  // simply dropped.
  valuation_.Clear();
  for (const auto& [job, scale] : restored_table_keys_) {
    const auto it = jobs_.find(job);
    if (it != jobs_.end()) {
      valuation_.Tables(job, scale, it->second.sched_dist, it->second.effective_utility,
                        /*counters=*/nullptr);
    }
  }
  restored_table_keys_.clear();
}

}  // namespace threesigma
