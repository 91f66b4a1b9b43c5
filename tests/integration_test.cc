// End-to-end integration tests: every Table 1 system over a shared small
// workload, checking the paper's qualitative results hold and the system
// plumbing (pre-training, preemption, abandonment, metrics) is sound.

#include <gtest/gtest.h>

#include "src/core/experiment.h"

namespace threesigma {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(4, 16);  // 64 nodes for test speed.
  config.workload.duration = Minutes(30.0);
  config.workload.load = 1.3;
  config.workload.model_sample_jobs = 1200;
  config.workload.pretrain_jobs = 1500;
  config.workload.seed = 5;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 5;
  config.sched.cycle_period = config.sim.cycle_period;
  return config;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ExperimentConfig(SmallConfig());
    workload_ = new GeneratedWorkload(GenerateWorkload(config_->cluster, config_->workload));
  }
  static void TearDownTestSuite() {
    delete config_;
    delete workload_;
    config_ = nullptr;
    workload_ = nullptr;
  }

  static ExperimentConfig* config_;
  static GeneratedWorkload* workload_;
};

ExperimentConfig* IntegrationTest::config_ = nullptr;
GeneratedWorkload* IntegrationTest::workload_ = nullptr;

TEST_F(IntegrationTest, AllSystemsRunCleanly) {
  for (SystemKind kind :
       {SystemKind::kThreeSigma, SystemKind::kThreeSigmaNoDist, SystemKind::kThreeSigmaNoOE,
        SystemKind::kThreeSigmaNoAdapt, SystemKind::kPointPerfEst, SystemKind::kPointRealEst,
        SystemKind::kPrio}) {
    const RunMetrics m = RunSystem(kind, *config_, *workload_);
    EXPECT_EQ(m.system, SystemName(kind));
    EXPECT_EQ(m.slo_jobs + m.slo_censored + m.be_jobs,
              static_cast<int>(workload_->jobs.size()));
    EXPECT_EQ(m.rejected_placements, 0) << m.system << ": scheduler overcommitted";
    EXPECT_GT(m.goodput_machine_hours, 0.0) << m.system;
    EXPECT_GT(m.slo_completed + m.be_completed, 0) << m.system;
  }
}

TEST_F(IntegrationTest, ThreeSigmaBeatsPointRealEst) {
  // The headline result (Fig. 1/6): full distributions beat real point
  // estimates on SLO miss rate.
  const RunMetrics ts = RunSystem(SystemKind::kThreeSigma, *config_, *workload_);
  const RunMetrics point = RunSystem(SystemKind::kPointRealEst, *config_, *workload_);
  EXPECT_LT(ts.slo_miss_rate_percent, point.slo_miss_rate_percent);
}

TEST_F(IntegrationTest, ThreeSigmaNearPerfectEstimates) {
  const RunMetrics ts = RunSystem(SystemKind::kThreeSigma, *config_, *workload_);
  const RunMetrics perfect = RunSystem(SystemKind::kPointPerfEst, *config_, *workload_);
  // "Approaches the performance of a hypothetical scheduler with perfect
  // estimates": within a few points either way on this small workload.
  EXPECT_LT(ts.slo_miss_rate_percent, perfect.slo_miss_rate_percent + 10.0);
}

TEST_F(IntegrationTest, SimulationIsDeterministic) {
  const RunMetrics a = RunSystem(SystemKind::kThreeSigma, *config_, *workload_);
  const RunMetrics b = RunSystem(SystemKind::kThreeSigma, *config_, *workload_);
  EXPECT_DOUBLE_EQ(a.slo_miss_rate_percent, b.slo_miss_rate_percent);
  EXPECT_DOUBLE_EQ(a.goodput_machine_hours, b.goodput_machine_hours);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST_F(IntegrationTest, HighFidelityModeRuns) {
  ExperimentConfig hf = *config_;
  hf.sim.fidelity = SimFidelity::kHighFidelity;
  const RunMetrics m = RunSystem(SystemKind::kThreeSigma, hf, *workload_);
  EXPECT_EQ(m.rejected_placements, 0);
  // Table 2: real-vs-sim deltas are small.
  const RunMetrics ideal = RunSystem(SystemKind::kThreeSigma, *config_, *workload_);
  EXPECT_LT(std::abs(m.slo_miss_rate_percent - ideal.slo_miss_rate_percent), 15.0);
}

TEST_F(IntegrationTest, SyntheticSystemRuns) {
  SystemInstance instance =
      MakeSyntheticSystem(0.0, 0.2, config_->cluster, config_->sched, 77);
  const RunMetrics m =
      RunSystemInstance(instance, "synthetic", *config_, *workload_, /*pretrain=*/false);
  EXPECT_EQ(m.rejected_placements, 0);
  EXPECT_GT(m.slo_completed, 0);
}

TEST_F(IntegrationTest, SolverStatsPopulated) {
  const SimResult result = SimulateSystem(SystemKind::kThreeSigma, *config_, *workload_);
  ASSERT_FALSE(result.cycles.empty());
  bool any_milp = false;
  for (const CycleStats& c : result.cycles) {
    if (c.milp_variables > 0) {
      any_milp = true;
      EXPECT_GT(c.milp_rows, 0);
    }
  }
  EXPECT_TRUE(any_milp);
}

TEST_F(IntegrationTest, PaddedPointSystemRuns) {
  // The §2.2 stochastic-scheduler baseline: padding must not break anything
  // and k=0 padding must behave like a plain point scheduler.
  SystemInstance padded = MakePaddedPointSystem(1.0, config_->cluster, config_->sched);
  const RunMetrics m = RunSystemInstance(padded, "padded-1sigma", *config_, *workload_);
  EXPECT_EQ(m.rejected_placements, 0);
  EXPECT_GT(m.slo_completed + m.be_completed, 0);
}

TEST_F(IntegrationTest, MigrationPreemptionImprovesOrMatchesBeGoodput) {
  ExperimentConfig kill = *config_;
  ExperimentConfig resume = *config_;
  resume.sim.preemption_resumes = true;
  const RunMetrics a = RunSystem(SystemKind::kPrio, kill, *workload_);
  const RunMetrics b = RunSystem(SystemKind::kPrio, resume, *workload_);
  // Resuming preempted work should not reduce total completed work by more
  // than noise.
  EXPECT_GE(b.goodput_machine_hours, a.goodput_machine_hours * 0.9);
}

TEST(SystemsTest, NamesMatchTable1) {
  EXPECT_STREQ(SystemName(SystemKind::kThreeSigma), "3Sigma");
  EXPECT_STREQ(SystemName(SystemKind::kPointPerfEst), "PointPerfEst");
  EXPECT_STREQ(SystemName(SystemKind::kPointRealEst), "PointRealEst");
  EXPECT_STREQ(SystemName(SystemKind::kPrio), "Prio");
  EXPECT_STREQ(SystemName(SystemKind::kThreeSigmaNoDist), "3SigmaNoDist");
  EXPECT_STREQ(SystemName(SystemKind::kThreeSigmaNoOE), "3SigmaNoOE");
  EXPECT_STREQ(SystemName(SystemKind::kThreeSigmaNoAdapt), "3SigmaNoAdapt");
}

TEST(SystemsTest, ConfigurationsMatchTable1) {
  const ClusterConfig cluster = ClusterConfig::Uniform(2, 4);
  const DistSchedulerConfig base;
  {
    SystemInstance s = MakeSystem(SystemKind::kThreeSigma, cluster, base);
    auto* sched = dynamic_cast<DistributionScheduler*>(s.scheduler.get());
    ASSERT_NE(sched, nullptr);
    EXPECT_TRUE(sched->config().use_distribution);
    EXPECT_TRUE(sched->config().overestimate_handling);
    EXPECT_TRUE(sched->config().adaptive_oe);
  }
  {
    SystemInstance s = MakeSystem(SystemKind::kPointRealEst, cluster, base);
    auto* sched = dynamic_cast<DistributionScheduler*>(s.scheduler.get());
    ASSERT_NE(sched, nullptr);
    EXPECT_FALSE(sched->config().use_distribution);
    EXPECT_FALSE(sched->config().overestimate_handling);
  }
  {
    SystemInstance s = MakeSystem(SystemKind::kPrio, cluster, base);
    EXPECT_NE(dynamic_cast<PrioScheduler*>(s.scheduler.get()), nullptr);
  }
}

}  // namespace
}  // namespace threesigma
