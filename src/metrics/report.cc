#include "src/metrics/report.h"

#include <ostream>

namespace threesigma {
namespace {

const char* StatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kPending:
      return "pending";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kAbandoned:
      return "abandoned";
    case JobStatus::kUnfinished:
      return "unfinished";
  }
  return "unknown";
}

// The run-level telemetry columns: Sum fields report their total
// (cycle_sum), Max fields their maximum (cycle_max), wall-clock fields both.
// Writes the column names when `m` is null.
void WriteCycleRollups(std::ostream& os, const RunMetrics* m) {
  for (const CycleField& f : kCycleFields) {
    if (f.rollup != Rollup::kMax) {
      m != nullptr ? WriteCycleField(os << ",", m->cycle_sum, f) : os << ",total_" << f.name;
    }
    if (f.rollup != Rollup::kSum) {
      m != nullptr ? WriteCycleField(os << ",", m->cycle_max, f) : os << ",max_" << f.name;
    }
  }
}

}  // namespace

void WriteJobRecordsCsv(std::ostream& os, const std::vector<JobRecord>& jobs) {
  os << "id,user,name,type,tasks,submit,true_runtime,deadline,status,start,finish,"
        "group,preemptions,fault_kills,completed_work,missed_deadline\n";
  for (const JobRecord& job : jobs) {
    os << job.spec.id << "," << job.spec.user << "," << job.spec.name << ","
       << (job.spec.is_slo() ? "slo" : "be") << "," << job.spec.num_tasks << ","
       << job.spec.submit_time << "," << job.spec.true_runtime << ","
       << (job.spec.deadline == kNever ? -1.0 : job.spec.deadline) << ","
       << StatusName(job.status) << "," << job.start_time << "," << job.finish_time << ","
       << job.group << "," << job.preemptions << "," << job.fault_kills << ","
       << job.completed_work << "," << (job.MissedDeadline() ? 1 : 0) << "\n";
  }
}

void WriteRunMetricsCsv(std::ostream& os, const std::vector<RunMetrics>& runs) {
  os << "system,slo_jobs,slo_censored,be_jobs,slo_missed,slo_miss_rate_percent,"
        "slo_completed,be_completed,abandoned,unfinished,preemptions,"
        "goodput_machine_hours,slo_goodput_machine_hours,be_goodput_machine_hours,"
        "mean_be_latency_s,p50_be_latency_s,p90_be_latency_s,p99_be_latency_s";
  WriteCycleRollups(os, nullptr);
  os << ",mean_cycle_seconds,mean_solver_seconds,solver_nodes_per_second,"
        "valuation_cache_hit_rate,tasks_killed_by_faults,"
        "fault_node_events,stalled_cycles,node_downtime_fraction,rework_machine_hours,"
        "rework_ratio,goodput_per_available_hour\n";
  for (const RunMetrics& m : runs) {
    os << m.system << "," << m.slo_jobs << "," << m.slo_censored << "," << m.be_jobs << ","
       << m.slo_missed << "," << m.slo_miss_rate_percent << "," << m.slo_completed << ","
       << m.be_completed << "," << m.abandoned << "," << m.unfinished << ","
       << m.preemptions << "," << m.goodput_machine_hours << ","
       << m.slo_goodput_machine_hours << "," << m.be_goodput_machine_hours << ","
       << m.mean_be_latency_seconds << "," << m.p50_be_latency_seconds << ","
       << m.p90_be_latency_seconds << "," << m.p99_be_latency_seconds;
    WriteCycleRollups(os, &m);
    os << "," << m.mean_cycle_seconds << "," << m.mean_solver_seconds << ","
       << m.solver_nodes_per_second << "," << m.valuation_cache_hit_rate << ","
       << m.tasks_killed_by_faults << "," << m.fault_node_events << "," << m.stalled_cycles
       << "," << m.node_downtime_fraction << "," << m.rework_machine_hours << ","
       << m.rework_ratio << "," << m.goodput_per_available_hour << "\n";
  }
}

}  // namespace threesigma
