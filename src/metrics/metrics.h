// Success metrics (§5 "Success metrics").
//
//   - SLO miss rate: % of SLO jobs that miss their deadline (jobs that never
//     complete count as misses),
//   - goodput: machine-hours of completed work, split by job class (SLO jobs
//     completing late still contribute goodput but count as misses),
//   - mean best-effort latency: mean response time (completion - submission)
//     of completed BE jobs,
// plus scheduling-cycle/solver runtime aggregates for the Fig. 12 study.

#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace threesigma {

struct RunMetrics {
  std::string system;

  // SLO jobs are right-censored out of the miss statistics when the
  // simulation stopped before their deadline without a completion (their
  // outcome is undecided); `slo_jobs` counts decided jobs only.
  int slo_jobs = 0;
  int slo_censored = 0;
  int be_jobs = 0;
  int slo_missed = 0;
  int slo_completed = 0;
  int be_completed = 0;
  int abandoned = 0;
  int unfinished = 0;
  int preemptions = 0;
  int rejected_placements = 0;

  double slo_miss_rate_percent = 0.0;
  double goodput_machine_hours = 0.0;     // Total completed work.
  double slo_goodput_machine_hours = 0.0;
  double be_goodput_machine_hours = 0.0;
  double mean_be_latency_seconds = 0.0;
  double p50_be_latency_seconds = 0.0;
  double p90_be_latency_seconds = 0.0;
  double p99_be_latency_seconds = 0.0;

  // Per-cycle telemetry over the run (src/obs/cycle_telemetry.h): every
  // field's total and its per-cycle maximum. A field's declared roll-up
  // picks which of the two its exports report.
  CycleTelemetry cycle_sum;
  CycleTelemetry cycle_max;
  // Derived means and rates (0 when the denominator is 0): per-cycle mean
  // latencies, B&B nodes per solver second, and the share of capacity
  // (running-job survival) and valuation (Eq. 1 table) lookups served from
  // cache.
  double mean_cycle_seconds = 0.0;
  double mean_solver_seconds = 0.0;
  double solver_nodes_per_second = 0.0;
  double capacity_cache_hit_rate = 0.0;
  double valuation_cache_hit_rate = 0.0;

  // Fault-injection observability (all zero when chaos is off).
  int tasks_killed_by_faults = 0;
  int fault_node_events = 0;
  int stalled_cycles = 0;
  // Fraction of cluster space-time spent with nodes crashed.
  double node_downtime_fraction = 0.0;
  // Machine-hours of occupancy lost to fault kills (work that must be redone).
  double rework_machine_hours = 0.0;
  // rework / (rework + completed work): the share of consumed cluster time
  // that produced nothing. 0 when nothing ran.
  double rework_ratio = 0.0;
  // Goodput per available machine-hour: completed work over cluster
  // space-time actually up (nominal minus downtime). Separates "the scheduler
  // got worse" from "there was less cluster" under churn.
  double goodput_per_available_hour = 0.0;
};

// Aggregates a simulation run into the paper's success metrics.
RunMetrics ComputeMetrics(const SimResult& result, const std::string& system_name);

// SLO miss rate bucketed by deadline slack (useful to see where a scheduler
// loses: tight-slack jobs are the hard ones).
struct SlackBucketMetrics {
  double slack_low = 0.0;   // Inclusive, percent.
  double slack_high = 0.0;  // Exclusive, percent.
  int jobs = 0;
  int missed = 0;
  double miss_rate_percent = 0.0;
};
std::vector<SlackBucketMetrics> MissBySlack(const SimResult& result,
                                            const std::vector<double>& bucket_edges);

}  // namespace threesigma

#endif  // SRC_METRICS_METRICS_H_
