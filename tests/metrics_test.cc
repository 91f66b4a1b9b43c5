// Metrics aggregation tests.

#include <gtest/gtest.h>

#include "src/metrics/metrics.h"

namespace threesigma {
namespace {

JobRecord MakeRecord(JobId id, JobType type, JobStatus status, Time submit, Time start,
                     Time finish, int tasks, Time deadline = kNever) {
  JobRecord rec;
  rec.spec.id = id;
  rec.spec.type = type;
  rec.spec.submit_time = submit;
  rec.spec.num_tasks = tasks;
  rec.spec.deadline = deadline;
  rec.spec.true_runtime = finish > start ? finish - start : 0.0;
  rec.status = status;
  rec.start_time = start;
  rec.finish_time = finish;
  if (status == JobStatus::kCompleted) {
    rec.completed_work = tasks * (finish - start);
  }
  return rec;
}

TEST(MetricsTest, EmptyRun) {
  SimResult result;
  const RunMetrics m = ComputeMetrics(result, "x");
  EXPECT_EQ(m.system, "x");
  EXPECT_EQ(m.slo_jobs, 0);
  EXPECT_DOUBLE_EQ(m.slo_miss_rate_percent, 0.0);
  EXPECT_DOUBLE_EQ(m.goodput_machine_hours, 0.0);
}

TEST(MetricsTest, SloMissAccounting) {
  SimResult result;
  result.end_time = 10000.0;  // Every deadline below is decided.
  // On time.
  result.jobs.push_back(
      MakeRecord(1, JobType::kSlo, JobStatus::kCompleted, 0, 10, 100, 2, 150));
  // Late.
  result.jobs.push_back(
      MakeRecord(2, JobType::kSlo, JobStatus::kCompleted, 0, 10, 200, 2, 150));
  // Abandoned counts as a miss.
  result.jobs.push_back(
      MakeRecord(3, JobType::kSlo, JobStatus::kAbandoned, 0, kNever, kNever, 2, 150));
  // Unfinished counts as a miss.
  result.jobs.push_back(
      MakeRecord(4, JobType::kSlo, JobStatus::kUnfinished, 0, kNever, kNever, 2, 150));
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_EQ(m.slo_jobs, 4);
  EXPECT_EQ(m.slo_missed, 3);
  EXPECT_DOUBLE_EQ(m.slo_miss_rate_percent, 75.0);
  EXPECT_EQ(m.slo_completed, 2);
  EXPECT_EQ(m.abandoned, 1);
  EXPECT_EQ(m.unfinished, 1);
}

TEST(MetricsTest, RightCensoringExcludesUndecidedJobs) {
  SimResult result;
  result.end_time = 100.0;
  // Unfinished with deadline after the stop: censored (undecided).
  result.jobs.push_back(
      MakeRecord(1, JobType::kSlo, JobStatus::kUnfinished, 0, kNever, kNever, 1, 150));
  // Unfinished with deadline before the stop: a decided miss.
  result.jobs.push_back(
      MakeRecord(2, JobType::kSlo, JobStatus::kUnfinished, 0, kNever, kNever, 1, 50));
  // Completed after the stop's deadline horizon still counts normally.
  result.jobs.push_back(
      MakeRecord(3, JobType::kSlo, JobStatus::kCompleted, 0, 10, 90, 1, 150));
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_EQ(m.slo_censored, 1);
  EXPECT_EQ(m.slo_jobs, 2);
  EXPECT_EQ(m.slo_missed, 1);
  EXPECT_DOUBLE_EQ(m.slo_miss_rate_percent, 50.0);
}

TEST(MetricsTest, GoodputSplitsByClass) {
  SimResult result;
  result.end_time = 10000.0;
  result.jobs.push_back(
      MakeRecord(1, JobType::kSlo, JobStatus::kCompleted, 0, 0, 3600, 2, 7200));
  result.jobs.push_back(
      MakeRecord(2, JobType::kBestEffort, JobStatus::kCompleted, 0, 0, 1800, 4));
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_DOUBLE_EQ(m.slo_goodput_machine_hours, 2.0);
  EXPECT_DOUBLE_EQ(m.be_goodput_machine_hours, 2.0);
  EXPECT_DOUBLE_EQ(m.goodput_machine_hours, 4.0);
  // Late SLO completions still contribute goodput.
  result.jobs[0].finish_time = 9999.0;
  result.jobs[0].completed_work = 2 * 9999.0;
  const RunMetrics late = ComputeMetrics(result, "s");
  EXPECT_GT(late.slo_goodput_machine_hours, 2.0);
  EXPECT_EQ(late.slo_missed, 1);
}

TEST(MetricsTest, BeLatencyMeanOverCompleted) {
  SimResult result;
  result.jobs.push_back(
      MakeRecord(1, JobType::kBestEffort, JobStatus::kCompleted, 100, 150, 250, 1));
  result.jobs.push_back(
      MakeRecord(2, JobType::kBestEffort, JobStatus::kCompleted, 200, 400, 500, 1));
  result.jobs.push_back(
      MakeRecord(3, JobType::kBestEffort, JobStatus::kUnfinished, 300, kNever, kNever, 1));
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_EQ(m.be_jobs, 3);
  EXPECT_EQ(m.be_completed, 2);
  // Latencies: 150 and 300 -> mean 225.
  EXPECT_DOUBLE_EQ(m.mean_be_latency_seconds, 225.0);
}

TEST(MetricsTest, CycleAggregates) {
  SimResult result;
  result.cycles.push_back(CycleStats{{0.1, 0.05, 100, 20, 3, 5, 2}, 0.0});
  result.cycles.push_back(CycleStats{{0.3, 0.2, 400, 50, 7, 6, 3}, 10.0});
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_DOUBLE_EQ(m.mean_cycle_seconds, 0.2);
  EXPECT_DOUBLE_EQ(m.cycle_max.cycle_seconds, 0.3);
  EXPECT_DOUBLE_EQ(m.mean_solver_seconds, 0.125);
  EXPECT_DOUBLE_EQ(m.cycle_max.solver_seconds, 0.2);
  EXPECT_EQ(m.cycle_max.milp_variables, 400);
  EXPECT_EQ(m.cycle_max.milp_rows, 50);
}

TEST(MetricsTest, PreemptionAndRejectionCarriedThrough) {
  SimResult result;
  result.total_preemptions = 7;
  result.rejected_placements = 2;
  const RunMetrics m = ComputeMetrics(result, "s");
  EXPECT_EQ(m.preemptions, 7);
  EXPECT_EQ(m.rejected_placements, 2);
}

}  // namespace
}  // namespace threesigma
