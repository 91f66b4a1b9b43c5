#include "probes.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

using threesigma::ClusterStateView;
using threesigma::CycleResult;
using threesigma::Duration;
using threesigma::JobId;
using threesigma::JobSpec;
using threesigma::Time;

std::vector<WorkCounts::Item> WorkCounts::Items() const {
  return {{"sched.cycles", cycles, true},
          {"sched.solves", solves, true},
          {"solver.bnb_nodes", bnb_nodes, true},
          {"solver.milp_vars_max", milp_vars_max, true},
          {"solver.milp_rows_max", milp_rows_max, true},
          {"sched.valuation_kernel_calls", valuation_kernel_calls, true},
          {"sched.valuation_cache_hits", valuation_cache_hits, true},
          {"sched.valuation_cache_misses", valuation_cache_misses, true},
          {"sched.capacity_cache_hits", capacity_cache_hits, true},
          {"sched.capacity_cache_misses", capacity_cache_misses, true},
          {"predict.calls", predict_calls, true},
          {"sched.arrivals", arrivals, true},
          {"sim.steps", sim_steps, true},
          {"svc.rpcs", rpcs, true},
          {"svc.retry_later", retry_later, true},
          {"svc.queue_depth_max", queue_depth_max, true},
          {"snapshot.bytes", snapshot_bytes, false},
          {"twin.speculative_cycles", speculative_cycles, true}};
}

void TimedScheduler::OnJobArrival(const JobSpec& spec, Time now) {
  ++counts_->arrivals;
  const double t0 = Now();
  inner_->OnJobArrival(spec, now);
  const double dt = Now() - t0;
  hook_seconds += dt;
  arrival_us.Add(dt * 1e6);
}

namespace {

// Runs `call`, adding its wall time to `*total`.
template <typename F>
void Timed(double* total, F&& call) {
  const double t0 = Now();
  call();
  *total += Now() - t0;
}

}  // namespace

// The remaining event hooks only feed the hook-time total.
void TimedScheduler::OnJobStarted(JobId id, int group, Time now) {
  Timed(&hook_seconds, [&] { inner_->OnJobStarted(id, group, now); });
}
void TimedScheduler::OnJobFinished(JobId id, Time now, Duration observed_runtime) {
  Timed(&hook_seconds, [&] { inner_->OnJobFinished(id, now, observed_runtime); });
}
void TimedScheduler::OnJobPreempted(JobId id, Time now) {
  Timed(&hook_seconds, [&] { inner_->OnJobPreempted(id, now); });
}
void TimedScheduler::OnJobFaultKilled(JobId id, Time now) {
  Timed(&hook_seconds, [&] { inner_->OnJobFaultKilled(id, now); });
}
void TimedScheduler::OnJobCancelled(JobId id, Time now) {
  Timed(&hook_seconds, [&] { inner_->OnJobCancelled(id, now); });
}
void TimedScheduler::OnCapacityChanged(int group, int available_nodes, Time now) {
  Timed(&hook_seconds, [&] { inner_->OnCapacityChanged(group, available_nodes, now); });
}

CycleResult TimedScheduler::RunCycle(Time now, const ClusterStateView& state) {
  const double t0 = Now();
  CycleResult result = inner_->RunCycle(now, state);
  const double dt = Now() - t0;
  hook_seconds += dt;
  cycle_ms.Add(dt * 1e3);

  WorkCounts& c = *counts_;
  ++c.cycles;
  if (result.milp_variables > 0) {
    ++c.solves;
    solve_ms.Add(result.solver_seconds * 1e3);
  }
  solve_seconds += result.solver_seconds;
  c.bnb_nodes += result.milp_nodes;
  c.milp_vars_max = std::max<int64_t>(c.milp_vars_max, result.milp_variables);
  c.milp_rows_max = std::max<int64_t>(c.milp_rows_max, result.milp_rows);
  c.valuation_kernel_calls += result.valuation_kernel_calls;
  c.valuation_cache_hits += result.valuation_cache_hits;
  c.valuation_cache_misses += result.valuation_cache_misses;
  c.capacity_cache_hits += result.capacity_cache_hits;
  c.capacity_cache_misses += result.capacity_cache_misses;
  return result;
}

double PeakRssMb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the launching process, whose high-water mark survives exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

void Fnv::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ ^= bytes[i];
    h_ *= 1099511628211ull;
  }
}

}  // namespace perfbench
