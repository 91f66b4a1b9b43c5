#include "src/metrics/metrics.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace threesigma {

RunMetrics ComputeMetrics(const SimResult& result, const std::string& system_name) {
  RunMetrics m;
  m.system = system_name;
  m.preemptions = result.total_preemptions;
  m.rejected_placements = result.rejected_placements;

  double be_latency_sum = 0.0;
  std::vector<double> be_latencies;
  for (const JobRecord& job : result.jobs) {
    const bool completed = job.status == JobStatus::kCompleted;
    if (job.status == JobStatus::kAbandoned) {
      ++m.abandoned;
    }
    if (job.status == JobStatus::kUnfinished) {
      ++m.unfinished;
    }
    if (job.spec.is_slo()) {
      // Right-censoring: a job that neither completed nor saw its deadline
      // pass before the simulation stopped is undecided — it belongs to
      // neither the hit nor the miss count. Abandoned jobs are decided (the
      // scheduler permanently gave up on them), so they always count.
      if (!completed && job.status != JobStatus::kAbandoned &&
          job.spec.deadline > result.end_time) {
        ++m.slo_censored;
        continue;
      }
      ++m.slo_jobs;
      if (completed) {
        ++m.slo_completed;
        m.slo_goodput_machine_hours += MachineHours(1.0, job.completed_work);
      }
      if (job.MissedDeadline()) {
        ++m.slo_missed;
      }
    } else {
      ++m.be_jobs;
      if (completed) {
        ++m.be_completed;
        m.be_goodput_machine_hours += MachineHours(1.0, job.completed_work);
        be_latency_sum += job.finish_time - job.spec.submit_time;
        be_latencies.push_back(job.finish_time - job.spec.submit_time);
      }
    }
  }
  m.goodput_machine_hours = m.slo_goodput_machine_hours + m.be_goodput_machine_hours;
  if (m.slo_jobs > 0) {
    m.slo_miss_rate_percent = 100.0 * m.slo_missed / m.slo_jobs;
  }
  if (m.be_completed > 0) {
    m.mean_be_latency_seconds = be_latency_sum / m.be_completed;
    m.p50_be_latency_seconds = Quantile(be_latencies, 0.5);
    m.p90_be_latency_seconds = Quantile(be_latencies, 0.9);
    m.p99_be_latency_seconds = Quantile(be_latencies, 0.99);
  }

  for (const CycleStats& c : result.cycles) {
    for (const CycleField& f : kCycleFields) {
      if (f.count != nullptr) {
        m.cycle_sum.*f.count += c.*f.count;
        m.cycle_max.*f.count = std::max(m.cycle_max.*f.count, c.*f.count);
      } else {
        m.cycle_sum.*f.seconds += c.*f.seconds;
        m.cycle_max.*f.seconds = std::max(m.cycle_max.*f.seconds, c.*f.seconds);
      }
    }
  }
  const CycleTelemetry& sum = m.cycle_sum;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double cycles = static_cast<double>(result.cycles.size());
  m.mean_cycle_seconds = ratio(sum.cycle_seconds, cycles);
  m.mean_solver_seconds = ratio(sum.solver_seconds, cycles);
  m.solver_nodes_per_second = ratio(static_cast<double>(sum.milp_nodes), sum.solver_seconds);
  m.valuation_cache_hit_rate =
      ratio(static_cast<double>(sum.valuation_cache_hits),
            static_cast<double>(sum.valuation_cache_hits + sum.valuation_cache_misses));

  m.tasks_killed_by_faults = result.tasks_killed_by_faults;
  m.fault_node_events = result.fault_node_events;
  m.stalled_cycles = result.stalled_cycles;
  m.node_downtime_fraction = result.node_downtime_fraction;
  m.rework_machine_hours = MachineHours(1.0, result.rework_node_seconds);
  const double consumed = m.rework_machine_hours + m.goodput_machine_hours;
  if (consumed > 0.0) {
    m.rework_ratio = m.rework_machine_hours / consumed;
  }
  if (result.available_node_seconds > 0.0) {
    m.goodput_per_available_hour =
        m.goodput_machine_hours / MachineHours(1.0, result.available_node_seconds);
  }
  return m;
}

std::vector<SlackBucketMetrics> MissBySlack(const SimResult& result,
                                            const std::vector<double>& bucket_edges) {
  TS_CHECK_GE(bucket_edges.size(), 2u);
  std::vector<SlackBucketMetrics> buckets;
  for (size_t i = 0; i + 1 < bucket_edges.size(); ++i) {
    TS_CHECK_LT(bucket_edges[i], bucket_edges[i + 1]);
    SlackBucketMetrics b;
    b.slack_low = bucket_edges[i];
    b.slack_high = bucket_edges[i + 1];
    buckets.push_back(b);
  }
  for (const JobRecord& job : result.jobs) {
    if (!job.spec.is_slo()) {
      continue;
    }
    if (job.status != JobStatus::kCompleted && job.status != JobStatus::kAbandoned &&
        job.spec.deadline > result.end_time) {
      continue;  // Censored, as in ComputeMetrics.
    }
    const double slack = job.spec.DeadlineSlackPercent();
    for (SlackBucketMetrics& b : buckets) {
      if (slack >= b.slack_low && slack < b.slack_high) {
        ++b.jobs;
        if (job.MissedDeadline()) {
          ++b.missed;
        }
        break;
      }
    }
  }
  for (SlackBucketMetrics& b : buckets) {
    if (b.jobs > 0) {
      b.miss_rate_percent = 100.0 * b.missed / b.jobs;
    }
  }
  return buckets;
}

}  // namespace threesigma
