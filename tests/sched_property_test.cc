// Property tests for the scheduling layer around the solver, expected
// capacity (Eq. 3) and the valuation table cache:
//   - expected free capacity is monotone non-increasing in added running
//     load, and a function of the running set alone: jobs that ran and
//     finished leave no trace in it (Eq. 3),
//   - Eq. 2 conditioning yields a valid survival function: 1 − CDF(t)
//     non-increasing in t, within [0, 1], and equal to S(e + t)/S(e),
//   - crosscheck mode stays silent across whole simulations and moves no
//     decision: every kernel matches the generic Eq. 1 loop, and every
//     table cache hit matches a fresh rebuild.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/histogram/empirical_distribution.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "tests/sim_trace.h"

namespace threesigma {
namespace {

// ---------------------------------------------------------------------------
// Full-stack configuration shared by the crosscheck properties below.

ExperimentConfig PropertyConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(4, 16);
  config.workload.duration = Minutes(20.0);
  config.workload.load = 1.3;
  config.workload.model_sample_jobs = 800;
  config.workload.pretrain_jobs = 1000;
  config.workload.seed = 11;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 11;
  config.sched.cycle_period = config.sim.cycle_period;
  // The wall-clock budget is the one non-deterministic input to the solver;
  // the node budget alone keeps the search bounded and reproducible.
  config.sched.solver_time_limit_seconds = 0.0;
  return config;
}

// ---------------------------------------------------------------------------
// Eq. 3 monotonicity: more running load, less expected free capacity.

class UniformPredictor : public RuntimePredictor {
 public:
  RuntimePrediction Predict(const JobFeatures&, double) override {
    RuntimePrediction pred;
    pred.distribution = EmpiricalDistribution::FromUniform(50.0, 450.0, 101);
    pred.point_estimate = pred.distribution.Mean();
    pred.from_history = true;
    return pred;
  }
  void RecordCompletion(const JobFeatures&, double) override {}
};

JobSpec BeJob(JobId id) {
  JobSpec spec;
  spec.id = id;
  spec.type = JobType::kBestEffort;
  spec.submit_time = 0.0;
  spec.true_runtime = 200.0;
  spec.num_tasks = 2;
  spec.utility = UtilityFunction::BestEffortLinear(1.0, 0.0, Hours(2.0));
  spec.features = {"f"};
  return spec;
}

// Expected consumption of group 0 after starting `k` identical jobs on it.
std::vector<double> ConsumedWithLoad(int k) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 32);
  UniformPredictor predictor;
  DistSchedulerConfig config;
  config.solver_time_limit_seconds = 0.0;
  DistributionScheduler sched(cluster, &predictor, config);

  ClusterStateView view;
  view.cluster = &cluster;
  view.free_nodes = {32 - 2 * k};
  for (int j = 0; j < k; ++j) {
    const JobSpec spec = BeJob(static_cast<JobId>(j + 1));
    sched.OnJobArrival(spec, 0.0);
    sched.OnJobStarted(spec.id, 0, 0.0);
    view.running.push_back(
        RunningJobView{spec.id, 0, 0.0, spec.num_tasks, JobType::kBestEffort});
  }
  sched.RunCycle(5.0, view);
  return sched.expected_consumed()[0];
}

TEST(SchedPropertyTest, ExpectedFreeCapacityMonotoneInLoad) {
  std::vector<double> prev;
  for (int k = 0; k <= 8; k += 2) {
    const std::vector<double> consumed = ConsumedWithLoad(k);
    ASSERT_FALSE(consumed.empty());
    if (!prev.empty()) {
      for (size_t i = 0; i < consumed.size(); ++i) {
        // More running jobs must never increase expected free capacity.
        EXPECT_GE(consumed[i], prev[i] - 1e-9) << "k=" << k << " slot " << i;
      }
    }
    for (double c : consumed) {
      EXPECT_GE(c, -1e-9);  // Survival() carries ~1e-13 float noise past the max.
      EXPECT_LE(c, 32.0 + 1e-9);
    }
    prev = consumed;
  }
}

// ---------------------------------------------------------------------------
// Eq. 3 is a function of the running set: scheduler A starts jobs 1-4, sums
// them into its rows at one solve and then sees jobs 2 and 3 finish;
// scheduler B only ever starts jobs 1 and 4, at the same times. At the next
// solve both hold bitwise-equal rows and make the same decisions. The
// 1/101-mass atoms, conditioned on four different elapsed times and scaled
// by odd gang sizes, give survivals whose sums do not cancel exactly, so
// rows kept by adding and subtracting each job's share would differ.

struct CapacityOutcome {
  std::vector<std::vector<double>> consumed;
  std::vector<std::pair<JobId, int>> starts;
  std::vector<JobId> preempts;
};

CapacityOutcome RunAfterHistory(bool with_finished_jobs) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 16);
  UniformPredictor predictor;
  DistSchedulerConfig config;
  config.solver_time_limit_seconds = 0.0;
  DistributionScheduler sched(cluster, &predictor, config);

  ClusterStateView view;
  view.cluster = &cluster;
  const auto start = [&](JobId id, int tasks, Time t) {
    JobSpec spec = BeJob(id);
    spec.num_tasks = tasks;
    spec.submit_time = t;
    sched.OnJobArrival(spec, t);
    sched.OnJobStarted(id, 0, t);
    view.running.push_back(RunningJobView{id, 0, t, tasks, JobType::kBestEffort});
  };
  start(1, 1, 0.0);
  if (with_finished_jobs) {
    start(2, 11, 3.0);
    start(3, 3, 7.0);
  }
  start(4, 1, 11.0);
  if (with_finished_jobs) {
    view.free_nodes = {0};
    sched.RunCycle(20.0, view);  // No pending job: only the rows are summed.
    sched.OnJobFinished(2, 25.0, 22.0);
    sched.OnJobFinished(3, 25.0, 18.0);
    view.running = {view.running[0], view.running[3]};
  }
  view.free_nodes = {16 - 2};

  // The same pending work for both: small best-effort gangs, and an SLO job
  // that fits its deadline only by starting now, which takes one preemption.
  for (JobId id = 5; id <= 7; ++id) {
    JobSpec spec = BeJob(id);
    spec.num_tasks = 2;
    spec.submit_time = 30.0;
    sched.OnJobArrival(spec, 30.0);
  }
  JobSpec slo = BeJob(8);
  slo.type = JobType::kSlo;
  slo.num_tasks = 15;
  slo.submit_time = 30.0;
  slo.deadline = 500.0;
  slo.utility = UtilityFunction::SloStep(10.0, slo.deadline);
  sched.OnJobArrival(slo, 30.0);

  const CycleResult result = sched.RunCycle(40.0, view);
  CapacityOutcome out;
  out.consumed = sched.expected_consumed();
  for (const Placement& p : result.start) {
    out.starts.emplace_back(p.job, p.group);
  }
  out.preempts = result.preempt;
  return out;
}

TEST(SchedPropertyTest, ExpectedCapacityIndependentOfFinishedJobs) {
  const CapacityOutcome churned = RunAfterHistory(/*with_finished_jobs=*/true);
  const CapacityOutcome fresh = RunAfterHistory(/*with_finished_jobs=*/false);
  ASSERT_EQ(churned.consumed.size(), 1u);
  ASSERT_EQ(fresh.consumed.size(), 1u);
  for (size_t g = 0; g < fresh.consumed.size(); ++g) {
    ASSERT_EQ(churned.consumed[g].size(), fresh.consumed[g].size());
    for (size_t i = 0; i < fresh.consumed[g].size(); ++i) {
      // Bitwise: exact equality, not a tolerance.
      EXPECT_EQ(churned.consumed[g][i], fresh.consumed[g][i]) << "group " << g << " slot " << i;
    }
  }
  EXPECT_GT(fresh.consumed[0][0], 0.0);
  EXPECT_FALSE(fresh.starts.empty());
  EXPECT_FALSE(fresh.preempts.empty());
  EXPECT_EQ(churned.starts, fresh.starts);
  EXPECT_EQ(churned.preempts, fresh.preempts);
}

// ---------------------------------------------------------------------------
// Eq. 2 conditioning produces a valid, correctly-normalized survival curve.

TEST(SchedPropertyTest, ConditionedSurvivalIsMonotoneAndNormalized) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
      samples.push_back(rng.BoundedPareto(10.0, 5000.0, 1.1));
    }
    const EmpiricalDistribution dist = EmpiricalDistribution::FromSamples(samples);
    const double elapsed = rng.Uniform(0.0, 0.8 * dist.MaxValue());
    const double s_elapsed = dist.Survival(elapsed);
    if (s_elapsed <= 1e-12) {
      continue;
    }
    // The conditional stays in the total-runtime base: its atoms are the
    // original ones with value > elapsed, renormalized.
    const EmpiricalDistribution cond = dist.ConditionalGivenExceeds(elapsed);
    double last = 1.0 + 1e-12;
    for (double t = 0.0; t <= dist.MaxValue() * 1.2; t += dist.MaxValue() / 100.0) {
      const double s = cond.Survival(t);
      // 1 − CDF(t): within [0, 1] (up to float noise) and non-increasing in t.
      EXPECT_GE(s, -1e-9) << "seed " << seed << " t=" << t;
      EXPECT_LE(s, 1.0 + 1e-9) << "seed " << seed << " t=" << t;
      EXPECT_LE(s, last + 1e-9) << "seed " << seed << " t=" << t;
      if (t <= elapsed) {
        // Conditioning on T > elapsed: no mass at or below elapsed.
        EXPECT_NEAR(s, 1.0, 1e-9) << "seed " << seed << " t=" << t;
      } else {
        // Eq. 2: S(t | T > elapsed) = S(t) / S(elapsed).
        EXPECT_NEAR(s, dist.Survival(t) / s_elapsed, 1e-6)
            << "seed " << seed << " t=" << t;
      }
      last = s;
    }
  }
}

// ---------------------------------------------------------------------------
// Crosscheck mode: the oracle for the valuation engine and the warm root. It
// TS_CHECKs every cycle that every kernel and survival answer matches the
// generic per-atom loop bitwise, that every valuation table cache hit
// matches a table rebuilt from the job's current prediction, and that the
// root LP reaches a cold re-solve's optimum; any divergence aborts the
// process. It must not move a decision or a counter.

TEST(SchedPropertyTest, PointMassCrosscheckCleanOverFullRun) {
  // Point-mass distributions (one atom) take the valuation engine's
  // point-mass path; 3Sigma's dense histograms take the others (see the
  // valuation run below).
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  const SimResult plain = SimulateSystem(SystemKind::kPointRealEst, config, workload);
  config.sched.crosscheck = true;
  const SimResult checked = SimulateSystem(SystemKind::kPointRealEst, config, workload);
  EXPECT_EQ(SimTrace(plain), SimTrace(checked));
}

TEST(SchedPropertyTest, ValuationCrosscheckCleanOverFullRun) {
  // 3Sigma through the full stack.
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  const SimResult plain = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  config.sched.crosscheck = true;
  const SimResult checked = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  const RunMetrics m = ComputeMetrics(checked, "3Sigma");
  EXPECT_GT(m.cycle_sum.valuation_kernel_calls, 0);
  EXPECT_GT(m.cycle_sum.valuation_cache_hits, 0) << "table cache never hit";
  EXPECT_EQ(SimTrace(plain), SimTrace(checked)) << "crosscheck moved a decision";
}

}  // namespace
}  // namespace threesigma
