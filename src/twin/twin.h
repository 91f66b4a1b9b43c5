// Digital-twin what-if engine: snapshot-forked speculative simulation and an
// online policy advisor.
//
// The live system's byte-exact snapshot machinery (src/snapshot, PR 4) makes
// a running Simulator cheaply clonable: serialize to an in-memory buffer,
// restore into a fresh simulator + scheduler + predictor stack, and the
// clone continues the run bit-identically — RNG streams, conditioned
// distributions, solver warm-start state and all. A TwinFork is exactly that
// clone, plus a Scenario delta (policy overrides, arrival surges, extra node
// failures, predictor mis-estimation). The WhatIfEngine fans K forks out
// across its own thread pool, steps each H speculative cycles under
// observability suppression (src/obs/speculative.h), and merges per-scenario
// outcomes in scenario-index order, so a what-if report is byte-identical at
// any thread count and across checkpoint/restore. The Advisor scores the
// outcomes and — strictly opt-in — applies the winning policy overrides to
// the live scheduler at a cycle boundary.
//
// Isolation contract: a fork shares nothing mutable with the live run. It
// owns its cluster copy, predictor stack, scheduler, and simulator; the one
// shared input is the snapshot buffer, which forks read through borrowed
// (non-owning) SnapshotReaders. Global observability is suppressed for the
// fork's whole lifetime, so the live run's metrics, traces, phase rows, and
// decision log never see speculative activity.

#ifndef SRC_TWIN_TWIN_H_
#define SRC_TWIN_TWIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/systems.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sim/simulator.h"
#include "src/twin/scenario.h"

namespace threesigma {

namespace obs {
class Counter;
}  // namespace obs

// Scales predictions by a constant factor (scenario padding x mis-estimate
// inflation). Snapshot-transparent: unlike the wrapper predictors in
// src/predict (which prefix their own kind tag), Save/RestoreState delegate
// verbatim to the inner predictor, so a fork's predictor stack restores from
// a live snapshot that was written without the wrapper. Factor 1.0 is an
// exact pass-through (bit-identical predictions, the baseline fork's
// requirement).
class InflatedPredictor : public RuntimePredictor {
 public:
  // `inner` must outlive this predictor.
  InflatedPredictor(RuntimePredictor* inner, double factor) : inner_(inner), factor_(factor) {}

  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

  double factor() const { return factor_; }

 private:
  RuntimePredictor* inner_;
  double factor_;
};

// Applies `scenario`'s policy-config overrides (Scenario::ConfigOverrides) to
// `config`: the system switch first, then planahead and oe_threshold. Fails
// with `*error` set, leaving `config` possibly half updated, when the system
// is unknown or outside the DistributionScheduler family. Forks, the
// advisor's auto-apply and its resume all go through here.
bool ApplyConfigOverrides(const Scenario& scenario, DistSchedulerConfig* config,
                          std::string* error);

// One scenario's speculative outcome. Every field is simulation-deterministic
// (no wall clock), so outcome lists compare byte-for-byte across runs.
struct ScenarioOutcome {
  std::string name;
  bool ok = false;
  std::string error;

  // Projected totals at the speculative horizon (cumulative from run start;
  // scenarios share the fork point, so cross-scenario deltas are exact).
  double projected_utility = 0.0;  // Sum of utility at completion, completed jobs.
  int64_t completed = 0;
  int64_t deadline_misses = 0;  // SLO jobs late or not completed.
  int64_t slo_jobs = 0;
  double slo_attainment = 1.0;  // 1 - misses / slo_jobs (1.0 with no SLO jobs).
  int64_t preemptions = 0;
  int64_t pending_end = 0;                 // Queue depth after the last cycle.
  std::vector<int64_t> queue_depth;        // Per speculative cycle.
  int64_t speculative_cycles = 0;          // Cycles actually stepped (<= H).
  double end_time = 0.0;                   // Sim clock when speculation stopped.
};

// A merged what-if sweep: outcomes in scenario-index order, index 0 always
// the implicit baseline (the live configuration, unperturbed).
struct WhatIfReport {
  uint64_t fork_cycle = 0;
  double fork_time = 0.0;
  int horizon_cycles = 0;
  std::vector<ScenarioOutcome> outcomes;

  // Advisor verdict (filled by Advisor::Evaluate).
  int best_index = 0;       // Lexicographically best outcome.
  double best_gain = 0.0;   // best utility - baseline utility.
  bool applied = false;     // Auto-apply actually reconfigured the live run.

  // Deterministic fixed-format text rendering (the WhatIf RPC payload; CI
  // diffs two runs' reports byte-for-byte).
  std::string ToText() const;
};

// An isolated clone of a live run under one scenario.
class TwinFork {
 public:
  // `snapshot` is a live Simulator::SaveStateToBuffer() buffer; it must
  // outlive the fork (readers borrow it). `kind` names the live system
  // (DistributionScheduler family only) and `live_config` the live
  // scheduler's configuration — restore requires the identical config, and
  // scenario overrides are applied after restore. Check ok() before use.
  TwinFork(const std::string& snapshot, const ClusterConfig& cluster, SystemKind kind,
           const DistSchedulerConfig& live_config, const Scenario& scenario);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Steps up to `horizon_cycles` speculative scheduling cycles, finalizes the
  // fork, and measures the outcome. The fork is spent afterwards. Runs
  // entirely under observability suppression.
  ScenarioOutcome Speculate(int horizon_cycles);

  // The fork's simulator (tests poke at it before Speculate()).
  Simulator& sim() { return *sim_; }
  DistributionScheduler& sched() { return *sched_; }

 private:
  void ApplyScenario();

  Scenario scenario_;
  ClusterConfig cluster_;  // Owned: the fork must not alias live state.
  std::unique_ptr<RuntimePredictor> inner_predictor_;
  std::unique_ptr<InflatedPredictor> predictor_;
  std::unique_ptr<DistributionScheduler> sched_;
  std::unique_ptr<Simulator> sim_;
  bool ok_ = false;
  std::string error_;
};

// Advisor state surfaced by the AdvisorStatus RPC and checkpointed in the
// "twin" snapshot section.
struct AdvisorState {
  int64_t sweeps = 0;
  int64_t recommendations = 0;  // Sweeps where a non-baseline scenario won.
  int64_t applied = 0;          // Auto-applies executed.
  uint64_t last_sweep_cycle = 0;
  std::string last_best = "none";
  double last_gain = 0.0;
  // The config overrides currently auto-applied to the live scheduler
  // (empty Describe() when the live run still has its original config);
  // re-applied after checkpoint restore.
  bool has_applied_config = false;
  Scenario applied_scenario;

  std::string ToText(bool auto_apply) const;
};

// Scores what-if reports and (opt-in) applies the winner's policy overrides.
class Advisor {
 public:
  Advisor(bool auto_apply, double min_gain) : auto_apply_(auto_apply), min_gain_(min_gain) {}

  // Ranks `report->outcomes` (utility desc, SLO attainment desc, preemptions
  // asc, index asc), fills the verdict fields, and updates the advisor
  // state. `scenarios` is the sweep's input list (outcome i maps to
  // scenarios[i - 1]; index 0 is the implicit baseline). When auto-apply is
  // on and a non-baseline scenario with config overrides wins by at least
  // min_gain, applies those overrides to `live_sched` (caller guarantees a
  // cycle boundary) and records them.
  void Evaluate(WhatIfReport* report, const std::vector<Scenario>& scenarios,
                DistributionScheduler* live_sched);

  const AdvisorState& state() const { return state_; }
  bool auto_apply() const { return auto_apply_; }

  // Raw payload within the caller's section (version tag owned by caller).
  void SaveState(SnapshotWriter& writer) const;
  // Restores the state and re-applies any recorded applied config to
  // `live_sched` (null skips the re-apply). An applied spec that no longer
  // parses fails `reader`.
  void RestoreState(SnapshotReader& reader, DistributionScheduler* live_sched);

 private:
  bool auto_apply_;
  double min_gain_;
  AdvisorState state_;
};

struct TwinOptions {
  SystemKind kind = SystemKind::kThreeSigma;  // The live system being forked.
  int horizon_cycles = 50;                    // Default H per sweep.
  bool auto_apply = false;                    // Strictly opt-in.
  double min_gain = 1e-9;                     // Required gain over baseline.
  // Periodic advisory cadence in completed live cycles (0 = RPC-only).
  int64_t advise_every = 0;
  // Scenario sweep for the periodic hook; empty = DefaultScenarios().
  std::vector<Scenario> advisory_scenarios;
};

// Runs scenario sweeps against a live simulator. The engine never mutates
// the live run except through the opt-in advisor apply path.
class WhatIfEngine {
 public:
  // `live_sched` is the live run's scheduler. Its config seeds every fork,
  // and its solver_threads, when above 1, sizes the engine's fan-out pool
  // (read once, here): forks then speculate concurrently, each on one
  // worker. Both references must outlive the engine.
  WhatIfEngine(const ClusterConfig& cluster, DistributionScheduler* live_sched,
               TwinOptions options);

  // Snapshots `live` and runs `scenarios` (plus the implicit baseline) for
  // `horizon_cycles` speculative cycles each (<= 0 uses the default).
  // Outcomes merge in scenario-index order regardless of thread count.
  WhatIfReport Run(Simulator& live, const std::vector<Scenario>& scenarios, int horizon_cycles);

  // Periodic serve-loop hook: runs the advisory sweep when `cycles_completed`
  // crosses the cadence. Returns true when a sweep ran.
  bool MaybeAdvise(Simulator& live, uint64_t cycles_completed);

  const TwinOptions& options() const { return options_; }
  const AdvisorState& advisor_state() const { return advisor_.state(); }
  // Scenario fan-out workers, the calling thread included.
  int fanout_threads() const { return pool_ != nullptr ? pool_->size() : 1; }
  std::string AdvisorStatusText() const { return advisor_.state().ToText(advisor_.auto_apply()); }

  // Versioned "twin" snapshot section (advisor state); the host's state
  // extension calls these after its own sections.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  const ClusterConfig& cluster_;
  DistributionScheduler* live_sched_;
  TwinOptions options_;
  // The scenario fan-out workers; null runs the forks on the calling thread.
  std::unique_ptr<ThreadPool> pool_;
  Advisor advisor_;
  uint64_t last_advise_cycle_ = 0;

  obs::Counter* sweeps_counter_;
  obs::Counter* forks_counter_;
  obs::Counter* cycles_counter_;
  obs::Counter* recommendations_counter_;
  obs::Counter* applied_counter_;
};

}  // namespace threesigma

#endif  // SRC_TWIN_TWIN_H_
