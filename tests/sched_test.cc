// Behavioral tests for 3σSched (DistributionScheduler) and Prio.
//
// The centerpiece reproduces the paper's §2.3 / Fig. 5 worked example: two
// jobs on a one-node cluster, an SLO job with a 15-minute deadline and a BE
// job. With runtimes ~U(0,10) the scheduler must run the SLO job first; with
// ~U(2.5,7.5) (same mean!) it must run the BE job first. A point-estimate
// scheduler cannot tell these cases apart.

#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sched/prio_scheduler.h"

namespace threesigma {
namespace {

// Predictor whose answers are scripted per feature value.
class FakePredictor : public RuntimePredictor {
 public:
  void Set(const std::string& feature, EmpiricalDistribution dist, double point) {
    table_[feature] = {std::move(dist), point};
  }

  RuntimePrediction Predict(const JobFeatures& features, double /*true_runtime*/) override {
    for (const std::string& f : features) {
      const auto it = table_.find(f);
      if (it != table_.end()) {
        RuntimePrediction pred;
        pred.distribution = it->second.first;
        pred.point_estimate = it->second.second;
        pred.from_history = true;
        pred.source = f;
        return pred;
      }
    }
    RuntimePrediction pred;
    pred.distribution = EmpiricalDistribution::Point(60.0);
    pred.point_estimate = 60.0;
    return pred;
  }

  void RecordCompletion(const JobFeatures&, double) override { recorded_++; }

  int recorded() const { return recorded_; }

 private:
  std::map<std::string, std::pair<EmpiricalDistribution, double>> table_;
  int recorded_ = 0;
};

JobSpec MakeSloJob(JobId id, Time submit, Duration runtime, Time deadline, double value,
                   const std::string& tag) {
  JobSpec spec;
  spec.id = id;
  spec.name = tag;
  spec.type = JobType::kSlo;
  spec.submit_time = submit;
  spec.true_runtime = runtime;
  spec.num_tasks = 1;
  spec.deadline = deadline;
  spec.utility = UtilityFunction::SloStep(value, deadline);
  spec.features = {"job=" + tag};
  return spec;
}

JobSpec MakeBeJob(JobId id, Time submit, Duration runtime, double value,
                  const std::string& tag) {
  JobSpec spec;
  spec.id = id;
  spec.name = tag;
  spec.type = JobType::kBestEffort;
  spec.submit_time = submit;
  spec.true_runtime = runtime;
  spec.num_tasks = 1;
  spec.utility = UtilityFunction::BestEffortLinear(value, submit, Hours(2.0));
  spec.features = {"job=" + tag};
  return spec;
}

ClusterStateView IdleView(const ClusterConfig& cluster) {
  ClusterStateView view;
  view.cluster = &cluster;
  for (const NodeGroup& g : cluster.groups()) {
    view.free_nodes.push_back(g.node_count);
  }
  return view;
}

DistSchedulerConfig Fig5Config() {
  DistSchedulerConfig config;
  // The paper's example grid: start times {0, 2.5, ..., 17.5} minutes.
  config.planahead = Minutes(20.0);
  config.num_start_slots = 8;
  config.cycle_period = 1.0;
  config.solver_max_nodes = 500;
  config.solver_time_limit_seconds = 5.0;
  return config;
}

class Fig5Test : public ::testing::Test {
 protected:
  void RunScenario(double lo_minutes, double hi_minutes, JobId* started, Time* slo_plan) {
    ClusterConfig cluster = ClusterConfig::Uniform(1, 1);
    FakePredictor predictor;
    const auto dist =
        EmpiricalDistribution::FromUniform(Minutes(lo_minutes), Minutes(hi_minutes), 400);
    predictor.Set("job=D", dist, dist.Mean());
    predictor.Set("job=BE", dist, dist.Mean());
    DistributionScheduler sched(cluster, &predictor, Fig5Config());

    const JobSpec slo = MakeSloJob(1, 0.0, Minutes(5.0), Minutes(15.0), 10.0, "D");
    const JobSpec be = MakeBeJob(2, 0.0, Minutes(5.0), 1.0, "BE");
    sched.OnJobArrival(slo, 0.0);
    sched.OnJobArrival(be, 0.0);

    const CycleResult result = sched.RunCycle(0.0, IdleView(cluster));
    ASSERT_EQ(result.start.size(), 1u) << "exactly one job fits the single node now";
    *started = result.start[0].job;
    *slo_plan = kNever;
    (void)slo_plan;
  }
};

TEST_F(Fig5Test, Scenario1WideDistributionRunsSloFirst) {
  // Runtimes ~U(0, 10) minutes: running BE first risks a 12.5% deadline miss,
  // so the SLO job must start now (Fig. 5a).
  JobId started = 0;
  Time plan = 0;
  RunScenario(0.0, 10.0, &started, &plan);
  EXPECT_EQ(started, 1) << "SLO job D must run first under the wide distribution";
}

TEST_F(Fig5Test, Scenario2NarrowDistributionRunsBeFirst) {
  // Runtimes ~U(2.5, 7.5) minutes, same mean: even worst-case runtimes finish
  // the SLO job by the deadline, so the BE job starts first (Fig. 5b).
  JobId started = 0;
  Time plan = 0;
  RunScenario(2.5, 7.5, &started, &plan);
  EXPECT_EQ(started, 2) << "BE job must run first under the narrow distribution";
}

TEST(DistributionSchedulerTest, PointEstimatesCannotDistinguishFig5Cases) {
  // With point estimates (mean = 5 min), both Fig. 5 scenarios look
  // identical: the scheduler sees 5+5 <= 15 and (greedily maximizing BE
  // latency utility) starts the BE job first in both — wrong for case 1.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 1);
  FakePredictor predictor;
  const auto wide = EmpiricalDistribution::FromUniform(0.0, Minutes(10.0), 400);
  predictor.Set("job=D", wide, wide.Mean());
  predictor.Set("job=BE", wide, wide.Mean());
  DistSchedulerConfig config = Fig5Config();
  config.use_distribution = false;  // PointRealEst-style.
  DistributionScheduler sched(cluster, &predictor, config);
  sched.OnJobArrival(MakeSloJob(1, 0.0, Minutes(5.0), Minutes(15.0), 10.0, "D"), 0.0);
  sched.OnJobArrival(MakeBeJob(2, 0.0, Minutes(5.0), 1.0, "BE"), 0.0);
  const CycleResult result = sched.RunCycle(0.0, IdleView(cluster));
  ASSERT_EQ(result.start.size(), 1u);
  EXPECT_EQ(result.start[0].job, 2);
}

TEST(DistributionSchedulerTest, OverestimateHandlingRescuesImpossibleJob) {
  // History says the job takes ~30 min; the deadline window is 10 min. With
  // OE handling the utility decays gracefully and the idle cluster tries the
  // job anyway; without it, the job is never scheduled.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  const auto slow_dist = EmpiricalDistribution::FromUniform(Minutes(25.0), Minutes(35.0), 50);

  for (const bool oe : {true, false}) {
    FakePredictor predictor;
    predictor.Set("job=big", slow_dist, slow_dist.Mean());
    DistSchedulerConfig config = Fig5Config();
    config.overestimate_handling = oe;
    config.adaptive_oe = true;
    DistributionScheduler sched(cluster, &predictor, config);
    sched.OnJobArrival(MakeSloJob(1, 0.0, Minutes(5.0), Minutes(10.0), 10.0, "big"), 0.0);
    const CycleResult result = sched.RunCycle(0.0, IdleView(cluster));
    if (oe) {
      ASSERT_EQ(result.start.size(), 1u) << "OE handling must try the job";
      EXPECT_EQ(result.start[0].job, 1);
    } else {
      EXPECT_TRUE(result.start.empty()) << "zero expected utility: never scheduled";
    }
  }
}

TEST(DistributionSchedulerTest, AdaptiveOeDisabledForPlausibleJobs) {
  // P(meet deadline) = 0.5: adaptive mode must NOT extend the utility, so
  // once the deadline passes the job is abandoned. Non-adaptive mode extends
  // every SLO job and keeps scheduling it past the deadline.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  const auto dist = EmpiricalDistribution::FromUniform(Minutes(5.0), Minutes(15.0), 50);

  for (const bool adaptive : {true, false}) {
    FakePredictor predictor;
    predictor.Set("job=j", dist, dist.Mean());
    DistSchedulerConfig config = Fig5Config();
    config.overestimate_handling = true;
    config.adaptive_oe = adaptive;
    DistributionScheduler sched(cluster, &predictor, config);
    sched.OnJobArrival(MakeSloJob(1, 0.0, Minutes(8.0), Minutes(10.0), 10.0, "j"), 0.0);
    // One second past the deadline.
    const CycleResult result = sched.RunCycle(Minutes(10.0) + 1.0, IdleView(cluster));
    if (adaptive) {
      EXPECT_TRUE(result.start.empty());
      ASSERT_EQ(result.abandon.size(), 1u) << "utility is 0 after the deadline";
      EXPECT_EQ(result.abandon[0], 1);
    } else {
      ASSERT_EQ(result.start.size(), 1u) << "decayed utility is still positive";
    }
  }
}

TEST(DistributionSchedulerTest, PreemptsBestEffortForSloDeadline) {
  // A BE gang holds the whole cluster with a long expected remaining time; a
  // tight-deadline SLO job arrives. The MILP must preempt.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  FakePredictor predictor;
  const auto long_dist = EmpiricalDistribution::FromUniform(Hours(1.0), Hours(2.0), 50);
  const auto short_dist = EmpiricalDistribution::FromUniform(Minutes(4.0), Minutes(6.0), 50);
  predictor.Set("job=hog", long_dist, long_dist.Mean());
  predictor.Set("job=urgent", short_dist, short_dist.Mean());
  DistributionScheduler sched(cluster, &predictor, Fig5Config());

  JobSpec hog = MakeBeJob(1, 0.0, Hours(1.5), 1.0, "hog");
  hog.num_tasks = 4;
  sched.OnJobArrival(hog, 0.0);
  ClusterStateView view = IdleView(cluster);
  CycleResult r0 = sched.RunCycle(0.0, view);
  ASSERT_EQ(r0.start.size(), 1u);
  sched.OnJobStarted(1, 0, 0.0);

  // Cluster is now fully busy with the hog.
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};
  JobSpec urgent = MakeSloJob(2, Minutes(1.0), Minutes(5.0), Minutes(9.0), 40.0, "urgent");
  urgent.num_tasks = 4;
  sched.OnJobArrival(urgent, Minutes(1.0));
  const CycleResult r1 = sched.RunCycle(Minutes(1.0), view);
  ASSERT_EQ(r1.preempt.size(), 1u) << "the hog must be preempted";
  EXPECT_EQ(r1.preempt[0], 1);
  ASSERT_EQ(r1.start.size(), 1u);
  EXPECT_EQ(r1.start[0].job, 2);
}

TEST(DistributionSchedulerTest, PreemptionDisabledLeavesHogAlone) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  FakePredictor predictor;
  const auto long_dist = EmpiricalDistribution::FromUniform(Hours(1.0), Hours(2.0), 50);
  predictor.Set("job=hog", long_dist, long_dist.Mean());
  predictor.Set("job=urgent", long_dist, Minutes(5.0));
  DistSchedulerConfig config = Fig5Config();
  config.enable_preemption = false;
  DistributionScheduler sched(cluster, &predictor, config);

  JobSpec hog = MakeBeJob(1, 0.0, Hours(1.5), 1.0, "hog");
  hog.num_tasks = 4;
  sched.OnJobArrival(hog, 0.0);
  sched.OnJobStarted(1, 0, 0.0);
  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};
  JobSpec urgent = MakeSloJob(2, Minutes(1.0), Minutes(5.0), Minutes(9.0), 40.0, "urgent");
  urgent.num_tasks = 4;
  sched.OnJobArrival(urgent, Minutes(1.0));
  const CycleResult r = sched.RunCycle(Minutes(1.0), view);
  EXPECT_TRUE(r.preempt.empty());
  EXPECT_TRUE(r.start.empty());
}

TEST(DistributionSchedulerTest, UnderestimatedJobKeepsBlockingCapacity) {
  // A running job has outlived its entire history. Under §4.2.1 it must be
  // treated as still occupying its nodes (exp-inc), so a pending gang that
  // needs the whole group cannot start.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  FakePredictor predictor;
  const auto short_dist = EmpiricalDistribution::FromUniform(10.0, 20.0, 20);
  predictor.Set("job=late", short_dist, short_dist.Mean());
  predictor.Set("job=next", short_dist, short_dist.Mean());
  DistSchedulerConfig config = Fig5Config();
  config.enable_preemption = false;
  DistributionScheduler sched(cluster, &predictor, config);

  JobSpec late = MakeBeJob(1, 0.0, 500.0, 1.0, "late");
  late.num_tasks = 4;
  sched.OnJobArrival(late, 0.0);
  sched.OnJobStarted(1, 0, 0.0);

  JobSpec next = MakeBeJob(2, 0.0, 15.0, 1.0, "next");
  next.num_tasks = 4;
  sched.OnJobArrival(next, 50.0);

  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};
  // At t=50 the job has run 50s >> max-observed 20s.
  const CycleResult r = sched.RunCycle(50.0, view);
  EXPECT_TRUE(r.start.empty()) << "slot-0 capacity must reflect the straggler";
}

TEST(DistributionSchedulerTest, SlowdownOnNonPreferredGroupsShapesPlacement) {
  // Two groups; the job's preferred group is busy. Starting now on the
  // non-preferred group (1.5x runtime) would miss the deadline; the job must
  // NOT start there now.
  ClusterConfig cluster = ClusterConfig::Uniform(2, 2);
  FakePredictor predictor;
  const auto dist = EmpiricalDistribution::FromUniform(Minutes(9.0), Minutes(11.0), 50);
  predictor.Set("job=fussy", dist, dist.Mean());
  DistSchedulerConfig config = Fig5Config();
  config.enable_preemption = false;
  DistributionScheduler sched(cluster, &predictor, config);

  // Deadline allows 12 min: fine on preferred (~10 min), hopeless on
  // non-preferred (~15 min).
  JobSpec fussy = MakeSloJob(2, 0.0, Minutes(10.0), Minutes(12.0), 10.0, "fussy");
  fussy.num_tasks = 2;
  fussy.preferred_groups = {0};
  sched.OnJobArrival(fussy, 0.0);

  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0, 2};  // Preferred group fully busy.
  view.running = {RunningJobView{99, 0, 0.0, 2, JobType::kSlo}};
  // The scheduler does not know job 99; register it via arrival+start.
  JobSpec blocker = MakeBeJob(99, 0.0, Minutes(30.0), 1.0, "blocker");
  blocker.num_tasks = 2;
  blocker.type = JobType::kSlo;
  sched.OnJobArrival(blocker, 0.0);
  sched.OnJobStarted(99, 0, 0.0);

  const CycleResult r = sched.RunCycle(0.0, view);
  for (const Placement& p : r.start) {
    EXPECT_NE(p.job, 2) << "must not start on the slow group and miss the deadline";
  }
}

TEST(DistributionSchedulerTest, RecordsCompletionsIntoPredictor) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 2);
  FakePredictor predictor;
  DistributionScheduler sched(cluster, &predictor, Fig5Config());
  sched.OnJobArrival(MakeBeJob(1, 0.0, 10.0, 1.0, "a"), 0.0);
  sched.OnJobStarted(1, 0, 0.0);
  sched.OnJobFinished(1, 12.0, 12.0);
  EXPECT_EQ(predictor.recorded(), 1);
}

TEST(DistributionSchedulerTest, PendingCountTracksLifecycle) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 2);
  FakePredictor predictor;
  DistributionScheduler sched(cluster, &predictor, Fig5Config());
  EXPECT_EQ(sched.pending_count(), 0);
  sched.OnJobArrival(MakeBeJob(1, 0.0, 10.0, 1.0, "a"), 0.0);
  EXPECT_EQ(sched.pending_count(), 1);
  sched.OnJobStarted(1, 0, 0.0);
  EXPECT_EQ(sched.pending_count(), 0);
  sched.OnJobPreempted(1, 5.0);
  EXPECT_EQ(sched.pending_count(), 1);
  sched.OnJobFinished(1, 20.0, 15.0);
  EXPECT_EQ(sched.pending_count(), 0);
}

TEST(DistributionSchedulerTest, DeferredPlanReported) {
  // Fig. 5 scenario 1: D starts now, BE is deferred — the deferred
  // reservation must surface in CycleResult for observability.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 1);
  FakePredictor predictor;
  const auto dist = EmpiricalDistribution::FromUniform(0.0, Minutes(10.0), 200);
  predictor.Set("job=D", dist, dist.Mean());
  predictor.Set("job=BE", dist, dist.Mean());
  DistributionScheduler sched(cluster, &predictor, Fig5Config());
  sched.OnJobArrival(MakeSloJob(1, 0.0, Minutes(5.0), Minutes(15.0), 10.0, "D"), 0.0);
  sched.OnJobArrival(MakeBeJob(2, 0.0, Minutes(5.0), 1.0, "BE"), 0.0);
  const CycleResult result = sched.RunCycle(0.0, IdleView(cluster));
  ASSERT_EQ(result.start.size(), 1u);
  ASSERT_EQ(result.deferred.size(), 1u);
  EXPECT_EQ(result.deferred[0].job, 2);
  EXPECT_GT(result.deferred[0].start, 0.0);
}

TEST(DistributionSchedulerTest, SolveSkipAvoidsRedundantCycles) {
  // With unchanged state and no deferred start due, an immediately following
  // cycle must skip the MILP entirely.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  FakePredictor predictor;
  const auto dist = EmpiricalDistribution::FromUniform(Hours(1.0), Hours(2.0), 20);
  predictor.Set("job=long", dist, dist.Mean());
  predictor.Set("job=waiting", dist, dist.Mean());
  DistSchedulerConfig config = Fig5Config();
  config.max_solve_skip = 60.0;
  config.cycle_period = 5.0;
  config.enable_preemption = false;
  DistributionScheduler sched(cluster, &predictor, config);

  JobSpec hog = MakeBeJob(1, 0.0, Hours(1.5), 1.0, "long");
  hog.num_tasks = 4;
  sched.OnJobArrival(hog, 0.0);
  sched.OnJobStarted(1, 0, 0.0);
  JobSpec waiting = MakeBeJob(2, 0.0, Hours(1.5), 1.0, "waiting");
  waiting.num_tasks = 4;
  sched.OnJobArrival(waiting, 1.0);

  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};

  const CycleResult first = sched.RunCycle(2.0, view);
  EXPECT_GT(first.milp_variables, 0) << "first cycle must solve";
  const CycleResult second = sched.RunCycle(7.0, view);
  EXPECT_EQ(second.milp_variables, 0) << "nothing changed: cycle must be skipped";
  // A state change re-arms the solver.
  sched.OnJobPreempted(1, 12.0);
  view.free_nodes = {4};
  view.running.clear();
  const CycleResult third = sched.RunCycle(12.0, view);
  EXPECT_GT(third.milp_variables, 0);
}

// ---------------------------------------------------------------------------
// PrioScheduler
// ---------------------------------------------------------------------------

TEST(PrioSchedulerTest, SloJobsPreemptBestEffort) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  PrioScheduler sched(cluster);
  JobSpec hog = MakeBeJob(1, 0.0, Hours(1.0), 1.0, "hog");
  hog.num_tasks = 4;
  sched.OnJobArrival(hog, 0.0);
  sched.OnJobStarted(1, 0, 0.0);

  JobSpec urgent = MakeSloJob(2, 10.0, Minutes(5.0), Minutes(10.0), 10.0, "urgent");
  urgent.num_tasks = 4;
  sched.OnJobArrival(urgent, 10.0);

  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};
  const CycleResult r = sched.RunCycle(10.0, view);
  ASSERT_EQ(r.preempt.size(), 1u);
  EXPECT_EQ(r.preempt[0], 1);
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].job, 2);
}

TEST(PrioSchedulerTest, AttemptsSloEvenWhenHopeless) {
  // Unlike utility-based schedulers, Prio schedules an SLO job whose
  // deadline already passed (it has no runtime information).
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  PrioScheduler sched(cluster);
  sched.OnJobArrival(MakeSloJob(1, 0.0, Minutes(30.0), Minutes(5.0), 10.0, "doomed"),
                     0.0);
  const CycleResult r = sched.RunCycle(Minutes(10.0), IdleView(cluster));
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].job, 1);
}

TEST(PrioSchedulerTest, PrefersPreferredGroup) {
  ClusterConfig cluster = ClusterConfig::Uniform(2, 4);
  PrioScheduler sched(cluster);
  JobSpec job = MakeSloJob(1, 0.0, 100.0, 1000.0, 10.0, "j");
  job.preferred_groups = {1};
  sched.OnJobArrival(job, 0.0);
  const CycleResult r = sched.RunCycle(0.0, IdleView(cluster));
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].group, 1);
}

TEST(PrioSchedulerTest, BestEffortDoesNotPreempt) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 4);
  PrioScheduler sched(cluster);
  JobSpec hog = MakeBeJob(1, 0.0, Hours(1.0), 1.0, "hog");
  hog.num_tasks = 4;
  sched.OnJobArrival(hog, 0.0);
  sched.OnJobStarted(1, 0, 0.0);
  JobSpec be = MakeBeJob(2, 10.0, 100.0, 1.0, "b");
  be.num_tasks = 2;
  sched.OnJobArrival(be, 10.0);
  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {0};
  view.running = {RunningJobView{1, 0, 0.0, 4, JobType::kBestEffort}};
  const CycleResult r = sched.RunCycle(10.0, view);
  EXPECT_TRUE(r.preempt.empty());
  EXPECT_TRUE(r.start.empty());
}

TEST(PrioSchedulerTest, FallsBackToNonPreferredGroup) {
  ClusterConfig cluster = ClusterConfig::Uniform(2, 4);
  PrioScheduler sched(cluster);
  JobSpec job = MakeSloJob(1, 0.0, 100.0, 10000.0, 10.0, "j");
  job.num_tasks = 3;
  job.preferred_groups = {0};
  sched.OnJobArrival(job, 0.0);
  ClusterStateView view = IdleView(cluster);
  view.free_nodes = {1, 4};  // Preferred group too full.
  const CycleResult r = sched.RunCycle(0.0, view);
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].group, 1) << "must run (slower) rather than wait";
}

TEST(DistributionSchedulerTest, PendingCapDefersLowPriorityJobs) {
  // With max_pending_considered = 1, only the tightest-deadline SLO job
  // enters the MILP; the second job is not even valued this cycle.
  ClusterConfig cluster = ClusterConfig::Uniform(1, 8);
  FakePredictor predictor;
  const auto dist = EmpiricalDistribution::FromUniform(50.0, 70.0, 20);
  predictor.Set("job=a", dist, dist.Mean());
  predictor.Set("job=b", dist, dist.Mean());
  DistSchedulerConfig config = Fig5Config();
  config.max_pending_considered = 1;
  DistributionScheduler sched(cluster, &predictor, config);
  sched.OnJobArrival(MakeSloJob(1, 0.0, 60.0, 1000.0, 10.0, "a"), 0.0);
  sched.OnJobArrival(MakeSloJob(2, 0.0, 60.0, 500.0, 10.0, "b"), 0.0);
  const CycleResult r = sched.RunCycle(0.0, IdleView(cluster));
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].job, 2) << "earliest deadline is considered first";
}

TEST(PrioSchedulerTest, FifoWithinBestEffort) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 2);
  PrioScheduler sched(cluster);
  JobSpec first = MakeBeJob(1, 0.0, 100.0, 1.0, "first");
  first.num_tasks = 2;
  JobSpec second = MakeBeJob(2, 1.0, 100.0, 1.0, "second");
  second.num_tasks = 2;
  sched.OnJobArrival(second, 1.0);
  sched.OnJobArrival(first, 1.0);  // Arrival order scrambled on purpose.
  const CycleResult r = sched.RunCycle(2.0, IdleView(cluster));
  ASSERT_EQ(r.start.size(), 1u);
  EXPECT_EQ(r.start[0].job, 1) << "earlier submit time wins";
}

}  // namespace
}  // namespace threesigma
