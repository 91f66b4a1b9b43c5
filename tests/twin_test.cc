// Digital-twin unit tests: scenario parsing, the inflation predictor
// wrapper, snapshot-forked speculation, advisor scoring/auto-apply, and the
// engine's determinism + state round-trip guarantees.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/config_flags.h"
#include "src/obs/registry.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot_io.h"
#include "src/twin/scenario.h"
#include "src/twin/twin.h"

namespace threesigma {
namespace {

JobSpec MakeSloJob(JobId id, Time submit, Duration runtime, Time deadline, double value) {
  JobSpec spec;
  spec.id = id;
  spec.name = "twin-slo";
  spec.user = "tester";
  spec.type = JobType::kSlo;
  spec.submit_time = submit;
  spec.true_runtime = runtime;
  spec.num_tasks = 1;
  spec.deadline = deadline;
  spec.utility = UtilityFunction::SloStep(value, deadline);
  spec.features = {"user=tester", "jobname=twin-slo"};
  return spec;
}

JobSpec MakeBeJob(JobId id, Time submit, Duration runtime, double value) {
  JobSpec spec;
  spec.id = id;
  spec.name = "twin-be";
  spec.user = "tester";
  spec.type = JobType::kBestEffort;
  spec.submit_time = submit;
  spec.true_runtime = runtime;
  spec.num_tasks = 1;
  spec.utility = UtilityFunction::BestEffortLinear(value, submit, 4.0 * runtime);
  spec.features = {"user=tester", "jobname=twin-be"};
  return spec;
}

DistSchedulerConfig TestConfig() {
  DistSchedulerConfig config;
  config.name = "3Sigma";
  config.use_distribution = true;
  config.overestimate_handling = true;
  config.adaptive_oe = true;
  config.planahead = 1200.0;
  config.num_start_slots = 6;
  config.cycle_period = 10.0;
  return config;
}

std::vector<JobSpec> SmallWorkload(int jobs) {
  std::vector<JobSpec> workload;
  for (int i = 0; i < jobs; ++i) {
    const Time submit = 5.0 * i;
    if (i % 2 == 0) {
      workload.push_back(MakeSloJob(i + 1, submit, 60.0 + 10.0 * (i % 5),
                                    submit + 600.0, 10.0));
    } else {
      workload.push_back(MakeBeJob(i + 1, submit, 45.0 + 15.0 * (i % 3), 1.0));
    }
  }
  return workload;
}

// A small live run mid-flight: predictor pre-trained, a few cycles stepped,
// work still pending — the state a serve daemon would snapshot.
class TwinForkTest : public ::testing::Test {
 protected:
  void Start(int jobs = 16, int warm_cycles = 4) {
    predictor_ = std::make_unique<ThreeSigmaPredictor>();
    for (int i = 0; i < 40; ++i) {
      predictor_->RecordCompletion({"user=tester", "jobname=twin-slo"}, 55.0 + (i % 7) * 5.0);
      predictor_->RecordCompletion({"user=tester", "jobname=twin-be"}, 40.0 + (i % 5) * 10.0);
    }
    sched_ = std::make_unique<DistributionScheduler>(cluster_, predictor_.get(), TestConfig());
    SimOptions options;
    options.seed = 7;
    sim_ = std::make_unique<Simulator>(cluster_, sched_.get(), SmallWorkload(jobs), options);
    for (int i = 0; i < warm_cycles; ++i) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  ClusterConfig cluster_ = ClusterConfig::Uniform(2, 4);
  std::unique_ptr<ThreeSigmaPredictor> predictor_;
  std::unique_ptr<DistributionScheduler> sched_;
  std::unique_ptr<Simulator> sim_;
};

// --- Scenario parsing --------------------------------------------------------

TEST(ScenarioTest, ParseAndDescribeRoundTrip) {
  Scenario scenario;
  std::string error;
  ASSERT_TRUE(ParseScenario(
      "name=stress,planahead=600,oe_threshold=0.2,surge=1.5,"
      "surge_window=300,failures=2,failure_after=30,failure_duration=120,"
      "inflation=1.25,padding=1.1,system=3SigmaNoOE",
      &scenario, &error))
      << error;
  EXPECT_EQ(scenario.name, "stress");
  EXPECT_DOUBLE_EQ(scenario.planahead, 600.0);
  EXPECT_DOUBLE_EQ(scenario.oe_probability_threshold, 0.2);
  EXPECT_DOUBLE_EQ(scenario.arrival_surge, 1.5);
  EXPECT_DOUBLE_EQ(scenario.surge_window, 300.0);
  EXPECT_EQ(scenario.extra_node_failures, 2);
  EXPECT_DOUBLE_EQ(scenario.failure_after, 30.0);
  EXPECT_DOUBLE_EQ(scenario.failure_duration, 120.0);
  EXPECT_DOUBLE_EQ(scenario.predictor_inflation, 1.25);
  EXPECT_DOUBLE_EQ(scenario.padding, 1.1);
  EXPECT_EQ(scenario.system, "3SigmaNoOE");
  EXPECT_TRUE(scenario.HasConfigOverride());

  // Describe() emits the same key=value format ParseScenario accepts.
  Scenario reparsed;
  ASSERT_TRUE(ParseScenario(scenario.Describe(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.Describe(), scenario.Describe());
}

TEST(ScenarioTest, ParseListAndErrors) {
  std::vector<Scenario> scenarios;
  std::string error;
  ASSERT_TRUE(ParseScenarioList("name=a,planahead=600;name=b,surge=2", &scenarios, &error))
      << error;
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].name, "a");
  EXPECT_EQ(scenarios[1].name, "b");
  EXPECT_FALSE(scenarios[1].HasConfigOverride()) << "surge is an overlay, not a config override";

  Scenario scenario;
  // solver_threads was a key until the solver became single-threaded; a
  // spec that still carries it is refused like any other unknown key.
  for (const std::string spec : {"bogus_key=1", "solver_threads=2"}) {
    error.clear();
    EXPECT_FALSE(ParseScenario(spec, &scenario, &error)) << spec;
    EXPECT_NE(error.find("unknown scenario key"), std::string::npos) << spec << ": " << error;
  }
  EXPECT_FALSE(ParseScenario("planahead=abc", &scenario, &error));
}

TEST(ScenarioTest, RejectsNonFiniteOutOfRangeAndOversizedValues) {
  // Scenario specs arrive over the WhatIf RPC, so each of these must fail
  // with an error instead of reaching a fork.
  const std::vector<std::string> bad = {
      "surge=inf",
      "surge=nan",
      "surge=1e309",
      "surge=100.5",
      "planahead=inf",
      "padding=nan",
      "inflation=-inf",
      "failure_after=inf",
      "surge_window=nan",
      "surge_window=86400.5",
      "surge_window=1e300",
      "failures=-1",
      "failures=100001",
      "failures=4294967296",  // Would narrow to 0.
      "failures=4294967297",  // Would narrow to 1.
      "failures=99999999999999999999",
  };
  for (const std::string& spec : bad) {
    Scenario scenario;
    std::string error;
    EXPECT_FALSE(ParseScenario(spec, &scenario, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    std::vector<Scenario> list;
    error.clear();
    EXPECT_FALSE(ParseScenarioList("name=ok;" + spec, &list, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }

  // The caps themselves are accepted.
  Scenario scenario;
  std::string error;
  EXPECT_TRUE(ParseScenario(
      "surge=100,surge_window=86400,failures=" + std::to_string(kMaxScenarioFailures),
      &scenario, &error))
      << error;
  EXPECT_DOUBLE_EQ(scenario.surge_window, kMaxScenarioSurgeWindow);
  EXPECT_EQ(scenario.extra_node_failures, kMaxScenarioFailures);
}

TEST(ScenarioTest, DefaultScenariosAreWellFormed) {
  const std::vector<Scenario> defaults = DefaultScenarios();
  ASSERT_GE(defaults.size(), 4u);
  for (const Scenario& s : defaults) {
    EXPECT_FALSE(s.name.empty());
    Scenario reparsed;
    std::string error;
    EXPECT_TRUE(ParseScenario(s.Describe(), &reparsed, &error)) << s.name << ": " << error;
  }
}

TEST(ScenarioTest, ConfigOverridesApplyByOneRule) {
  Scenario scenario;
  std::string error;
  ASSERT_TRUE(ParseScenario("name=x,system=3SigmaNoOE,planahead=600,oe_threshold=0.2,"
                            "surge=2,failures=3,padding=1.5",
                            &scenario, &error))
      << error;
  DistSchedulerConfig config;
  ASSERT_TRUE(ApplyConfigOverrides(scenario, &config, &error)) << error;
  EXPECT_EQ(config.name, "3SigmaNoOE");
  EXPECT_FALSE(config.overestimate_handling);
  EXPECT_DOUBLE_EQ(config.planahead, 600.0);
  EXPECT_DOUBLE_EQ(config.oe_probability_threshold, 0.2);

  // The advisor's record keeps exactly the fields that were applied, so
  // re-applying it on resume reproduces the same config.
  const Scenario record = scenario.ConfigOverrides();
  EXPECT_EQ(record.Describe(),
            "name=x,system=3SigmaNoOE,planahead=600,oe_threshold=0.2");
  DistSchedulerConfig replayed;
  ASSERT_TRUE(ApplyConfigOverrides(record, &replayed, &error)) << error;
  EXPECT_EQ(replayed.name, config.name);
  EXPECT_EQ(replayed.overestimate_handling, config.overestimate_handling);
  EXPECT_DOUBLE_EQ(replayed.planahead, config.planahead);
  EXPECT_DOUBLE_EQ(replayed.oe_probability_threshold, config.oe_probability_threshold);

  Scenario prio;
  prio.system = "Prio";
  error.clear();
  EXPECT_FALSE(ApplyConfigOverrides(prio, &config, &error));
  EXPECT_FALSE(error.empty());
}

// --- InflatedPredictor -------------------------------------------------------

TEST(InflatedPredictorTest, ScalesDistributionAndPointEstimate) {
  ThreeSigmaPredictor inner;
  for (int i = 0; i < 30; ++i) {
    inner.RecordCompletion({"user=u", "jobname=j"}, 100.0);
  }
  InflatedPredictor inflated(&inner, 1.5);
  const RuntimePrediction base = inner.Predict({"user=u", "jobname=j"}, 100.0);
  const RuntimePrediction scaled = inflated.Predict({"user=u", "jobname=j"}, 100.0);
  EXPECT_DOUBLE_EQ(scaled.point_estimate, base.point_estimate * 1.5);
  EXPECT_DOUBLE_EQ(scaled.distribution.Mean(), base.distribution.Mean() * 1.5);
}

TEST(InflatedPredictorTest, UnitFactorIsExactPassThrough) {
  ThreeSigmaPredictor inner;
  inner.RecordCompletion({"user=u", "jobname=j"}, 100.0);
  InflatedPredictor identity(&inner, 1.0);
  const RuntimePrediction base = inner.Predict({"user=u", "jobname=j"}, 100.0);
  const RuntimePrediction same = identity.Predict({"user=u", "jobname=j"}, 100.0);
  EXPECT_EQ(same.point_estimate, base.point_estimate);
  EXPECT_EQ(same.distribution.Mean(), base.distribution.Mean());
}

// --- TwinFork ----------------------------------------------------------------

TEST_F(TwinForkTest, BaselineForkSpeculatesWithoutTouchingLiveState) {
  Start();
  const std::string before = sim_->SaveStateToBuffer();

  Scenario baseline;
  baseline.name = "baseline";
  TwinFork fork(before, cluster_, SystemKind::kThreeSigma, sched_->config(), baseline);
  ASSERT_TRUE(fork.ok()) << fork.error();
  const ScenarioOutcome outcome = fork.Speculate(200);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GT(outcome.speculative_cycles, 0);
  EXPECT_GT(outcome.completed, 0);
  EXPECT_GT(outcome.projected_utility, 0.0);

  // The live run must be bit-identical to before the speculation.
  EXPECT_EQ(sim_->SaveStateToBuffer(), before);
}

TEST_F(TwinForkTest, ForkIsSpentAfterSpeculate) {
  Start();
  const std::string snapshot = sim_->SaveStateToBuffer();
  Scenario baseline;
  TwinFork fork(snapshot, cluster_, SystemKind::kThreeSigma, sched_->config(), baseline);
  ASSERT_TRUE(fork.ok()) << fork.error();
  ASSERT_TRUE(fork.Speculate(10).ok);
  const ScenarioOutcome second = fork.Speculate(10);
  EXPECT_FALSE(second.ok) << "a fork is single-shot";
}

TEST_F(TwinForkTest, SurgeScenarioInjectsCloneArrivals) {
  Start();
  const std::string snapshot = sim_->SaveStateToBuffer();

  Scenario baseline;
  TwinFork base_fork(snapshot, cluster_, SystemKind::kThreeSigma, sched_->config(), baseline);
  ASSERT_TRUE(base_fork.ok()) << base_fork.error();
  const ScenarioOutcome base = base_fork.Speculate(300);
  ASSERT_TRUE(base.ok) << base.error;

  Scenario surge;
  surge.name = "surge";
  surge.arrival_surge = 2.0;
  surge.surge_window = 120.0;
  TwinFork surge_fork(snapshot, cluster_, SystemKind::kThreeSigma, sched_->config(), surge);
  ASSERT_TRUE(surge_fork.ok()) << surge_fork.error();
  const ScenarioOutcome surged = surge_fork.Speculate(300);
  ASSERT_TRUE(surged.ok) << surged.error;
  EXPECT_GT(surged.completed, base.completed) << "surge clones must enter the speculative run";
}

TEST_F(TwinForkTest, FailureScenarioInjectsFaultEvents) {
  Start();
  const std::string snapshot = sim_->SaveStateToBuffer();
  Scenario failures;
  failures.name = "failures";
  failures.extra_node_failures = 2;
  failures.failure_after = 5.0;
  failures.failure_duration = 400.0;
  TwinFork fork(snapshot, cluster_, SystemKind::kThreeSigma, sched_->config(), failures);
  ASSERT_TRUE(fork.ok()) << fork.error();
  const ScenarioOutcome outcome = fork.Speculate(300);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GT(outcome.speculative_cycles, 0);
}

TEST_F(TwinForkTest, PrioSystemRejected) {
  Start();
  const std::string snapshot = sim_->SaveStateToBuffer();
  Scenario baseline;
  TwinFork fork(snapshot, cluster_, SystemKind::kPrio, sched_->config(), baseline);
  EXPECT_FALSE(fork.ok());
  EXPECT_NE(fork.error().find("DistributionScheduler"), std::string::npos);
}

TEST_F(TwinForkTest, ConfigOverrideScenarioChangesForkPolicy) {
  Start();
  const std::string snapshot = sim_->SaveStateToBuffer();
  Scenario tweak;
  tweak.name = "planahead_half";
  tweak.planahead = 600.0;
  tweak.oe_probability_threshold = 0.2;
  TwinFork fork(snapshot, cluster_, SystemKind::kThreeSigma, sched_->config(), tweak);
  ASSERT_TRUE(fork.ok()) << fork.error();
  EXPECT_DOUBLE_EQ(fork.sched().config().planahead, 600.0);
  EXPECT_DOUBLE_EQ(fork.sched().config().oe_probability_threshold, 0.2);
  EXPECT_TRUE(fork.Speculate(100).ok);
  // The live scheduler's config is untouched.
  EXPECT_DOUBLE_EQ(sched_->config().planahead, 1200.0);
}

// --- WhatIfEngine ------------------------------------------------------------

TEST_F(TwinForkTest, EngineReportIsDeterministicAndLeavesLiveStateAlone) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 60;
  WhatIfEngine engine(cluster_, sched_.get(), options);

  const std::string before = sim_->SaveStateToBuffer();
  const WhatIfReport first = engine.Run(*sim_, DefaultScenarios(), 60);
  // Everything but the process-global obs registry (where the engine's own
  // twin.* counters land by design) must be untouched.
  EXPECT_TRUE(DiffSnapshotSections(before, sim_->SaveStateToBuffer(), {"obs"}).empty())
      << "a what-if sweep must not perturb the live simulation";
  const WhatIfReport second = engine.Run(*sim_, DefaultScenarios(), 60);
  EXPECT_EQ(first.ToText(), second.ToText())
      << "identical sweeps from identical state must match byte-for-byte";
  ASSERT_EQ(first.outcomes.size(), DefaultScenarios().size() + 1);
  EXPECT_EQ(first.outcomes[0].name, "baseline");
  for (const ScenarioOutcome& o : first.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
  }
}

TEST_F(TwinForkTest, EngineThreadCountDoesNotChangeReport) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 40;

  DistSchedulerConfig serial_config = TestConfig();
  serial_config.solver_threads = 1;
  DistributionScheduler serial_sched(cluster_, predictor_.get(), serial_config);
  SimOptions sim_options;
  sim_options.seed = 7;
  Simulator serial_sim(cluster_, &serial_sched, SmallWorkload(16), sim_options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(serial_sim.Step());
  }
  WhatIfEngine serial_engine(cluster_, &serial_sched, options);
  const std::string serial = serial_engine.Run(serial_sim, DefaultScenarios(), 40).ToText();

  DistSchedulerConfig parallel_config = TestConfig();
  parallel_config.solver_threads = 4;
  DistributionScheduler parallel_sched(cluster_, predictor_.get(), parallel_config);
  Simulator parallel_sim(cluster_, &parallel_sched, SmallWorkload(16), sim_options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(parallel_sim.Step());
  }
  WhatIfEngine parallel_engine(cluster_, &parallel_sched, options);
  ASSERT_EQ(serial_engine.fanout_threads(), 1);
  ASSERT_EQ(parallel_engine.fanout_threads(), 4);
  const std::string parallel = parallel_engine.Run(parallel_sim, DefaultScenarios(), 40).ToText();

  EXPECT_EQ(serial, parallel) << "scenario fan-out must merge in index order";
}

TEST_F(TwinForkTest, AdvisorAutoApplyPromotesWinningOverride) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 60;
  options.auto_apply = true;
  options.min_gain = -1e9;  // Any strictly-better scenario wins.
  WhatIfEngine engine(cluster_, sched_.get(), options);

  // A scenario list where every alternative carries a config override; if one
  // beats baseline it must land in the live scheduler.
  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "planahead_half";
    s.planahead = 600.0;
    scenarios.push_back(s);
    s = Scenario{};
    s.name = "oe_wide";
    s.oe_probability_threshold = 0.2;
    scenarios.push_back(s);
  }
  const WhatIfReport report = engine.Run(*sim_, scenarios, 60);
  if (report.best_index > 0) {
    EXPECT_TRUE(report.applied);
    EXPECT_EQ(engine.advisor_state().applied, 1);
    const Scenario& winner = scenarios[static_cast<size_t>(report.best_index - 1)];
    if (winner.planahead > 0.0) {
      EXPECT_DOUBLE_EQ(sched_->config().planahead, winner.planahead);
    }
  } else {
    EXPECT_FALSE(report.applied);
    EXPECT_DOUBLE_EQ(sched_->config().planahead, 1200.0);
  }
  EXPECT_EQ(engine.advisor_state().sweeps, 1);
}

TEST_F(TwinForkTest, AutoApplyOffNeverTouchesLiveConfig) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 60;
  options.auto_apply = false;
  options.min_gain = -1e9;
  WhatIfEngine engine(cluster_, sched_.get(), options);
  const WhatIfReport report = engine.Run(*sim_, DefaultScenarios(), 60);
  EXPECT_FALSE(report.applied);
  EXPECT_EQ(engine.advisor_state().applied, 0);
  EXPECT_DOUBLE_EQ(sched_->config().planahead, 1200.0);
}

TEST_F(TwinForkTest, MaybeAdviseRespectsCadence) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 20;
  options.advise_every = 3;
  WhatIfEngine engine(cluster_, sched_.get(), options);
  EXPECT_FALSE(engine.MaybeAdvise(*sim_, 2));
  EXPECT_TRUE(engine.MaybeAdvise(*sim_, 3));
  EXPECT_FALSE(engine.MaybeAdvise(*sim_, 4));
  EXPECT_FALSE(engine.MaybeAdvise(*sim_, 5));
  EXPECT_TRUE(engine.MaybeAdvise(*sim_, 6));
  EXPECT_EQ(engine.advisor_state().sweeps, 2);
}

TEST_F(TwinForkTest, EngineStateRoundTripsThroughSnapshot) {
  Start();
  TwinOptions options;
  options.horizon_cycles = 20;
  options.advise_every = 3;
  WhatIfEngine engine(cluster_, sched_.get(), options);
  ASSERT_TRUE(engine.MaybeAdvise(*sim_, 3));

  SnapshotWriter writer;
  engine.SaveState(writer);
  const std::string buffer = writer.Finish();

  WhatIfEngine restored_engine(cluster_, sched_.get(), options);
  SnapshotReader reader(SnapshotReader::Borrowed{}, buffer);
  restored_engine.RestoreState(reader);
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(restored_engine.advisor_state().sweeps, engine.advisor_state().sweeps);
  EXPECT_EQ(restored_engine.advisor_state().last_sweep_cycle,
            engine.advisor_state().last_sweep_cycle);
  // The cadence clock survives: cycle 4 is still inside the advise window.
  EXPECT_FALSE(restored_engine.MaybeAdvise(*sim_, 4));
  EXPECT_TRUE(restored_engine.MaybeAdvise(*sim_, 6));
}

// A checkpoint whose advisor had applied a scenario with a key this build no
// longer accepts (solver_threads, from when the solver ran on a thread pool)
// must fail to restore with the parse error, not abort and not resume under
// a policy the snapshot did not record.
TEST_F(TwinForkTest, AppliedSpecWithRemovedKeyFailsRestoreSoft) {
  Start();
  // Hosts the engine's "twin" section the way the svc server does; `old_spec`
  // non-empty writes an advisor state carrying that applied spec instead.
  class TwinHost : public SimulatorStateExtension {
   public:
    TwinHost(WhatIfEngine* engine, std::string old_spec)
        : engine_(engine), old_spec_(std::move(old_spec)) {}
    void SaveState(SnapshotWriter& writer) const override {
      if (old_spec_.empty()) {
        engine_->SaveState(writer);
        return;
      }
      writer.BeginSection("twin", 1);
      writer.Fixed64(3);          // last_advise_cycle
      writer.VarInt(int64_t{1});  // sweeps
      writer.VarInt(int64_t{1});  // recommendations
      writer.VarInt(int64_t{1});  // applied
      writer.Fixed64(3);          // last_sweep_cycle
      writer.String("threads4");  // last_best
      writer.Double(0.5);         // last_gain
      writer.Bool(true);          // has_applied_config
      writer.String(old_spec_);
      writer.EndSection();
    }
    void RestoreState(SnapshotReader& reader) override { engine_->RestoreState(reader); }

   private:
    WhatIfEngine* engine_;
    std::string old_spec_;
  };

  TwinOptions options;
  WhatIfEngine engine(cluster_, sched_.get(), options);
  SimOptions sim_options;
  sim_options.seed = 7;
  std::string error;
  for (const bool old_key : {false, true}) {
    TwinHost writer_host(&engine, old_key ? "name=threads4,solver_threads=4" : "");
    sim_->SetStateExtension(&writer_host);
    const std::string buffer = sim_->SaveStateToBuffer();
    sim_->SetStateExtension(nullptr);

    DistributionScheduler sched(cluster_, predictor_.get(), TestConfig());
    Simulator target(cluster_, &sched, {}, sim_options);
    WhatIfEngine target_engine(cluster_, &sched, options);
    TwinHost reader_host(&target_engine, "");
    target.SetStateExtension(&reader_host);
    error.clear();
    const uint64_t cycles_before = target.cycles_completed();
    // The snapshot's registry totals apply only with the rest of the state.
    obs::Counter* sim_cycles = &obs::Metrics().sim_cycles;
    sim_cycles->Set(12345);
    const bool restored = target.TryRestoreStateFromBuffer(buffer, &error);
    target.SetStateExtension(nullptr);
    if (!old_key) {
      EXPECT_TRUE(restored) << error;
      continue;
    }
    EXPECT_FALSE(restored);
    EXPECT_NE(error.find("unknown scenario key: solver_threads"), std::string::npos) << error;
    EXPECT_FALSE(target_engine.advisor_state().has_applied_config);
    // The simulator and the registry are committed only after the extension
    // restored: a failed restore leaves both as they were.
    EXPECT_EQ(target.cycles_completed(), cycles_before);
    EXPECT_EQ(sim_cycles->Value(), 12345);
  }
}

// The serve-shaped case: an open-workload simulation whose submissions are
// still open when the sweep forks it. Speculation must terminate (the fork
// idles out instead of waiting for arrivals that will never come).
TEST_F(TwinForkTest, OpenWorkloadForkTerminates) {
  SimOptions options;
  options.seed = 7;
  options.open_workload = true;
  predictor_ = std::make_unique<ThreeSigmaPredictor>();
  sched_ = std::make_unique<DistributionScheduler>(cluster_, predictor_.get(), TestConfig());
  sim_ = std::make_unique<Simulator>(cluster_, sched_.get(), std::vector<JobSpec>{}, options);
  std::string error;
  for (const JobSpec& spec : SmallWorkload(8)) {
    ASSERT_TRUE(sim_->InjectJob(spec, &error)) << error;
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sim_->Step());
  }

  TwinOptions twin_options;
  twin_options.horizon_cycles = 50;
  WhatIfEngine engine(cluster_, sched_.get(), twin_options);
  const WhatIfReport report = engine.Run(*sim_, DefaultScenarios(), 50);
  ASSERT_EQ(report.outcomes.size(), DefaultScenarios().size() + 1);
  for (const ScenarioOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
    EXPECT_LE(o.speculative_cycles, 50);
  }
  const WhatIfReport again = engine.Run(*sim_, DefaultScenarios(), 50);
  EXPECT_EQ(report.ToText(), again.ToText());
}

}  // namespace
}  // namespace threesigma
