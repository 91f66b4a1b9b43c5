#include "src/obs/profiler.h"

#include <ostream>
#include <sstream>

namespace threesigma {
namespace obs {

std::atomic<bool> CycleProfiler::enabled_{false};
std::atomic<bool> DecisionLog::enabled_{false};

CycleProfiler& CycleProfiler::Global() {
  static CycleProfiler* const profiler = new CycleProfiler();
  return *profiler;
}

void CycleProfiler::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void CycleProfiler::BeginCycle(int64_t cycle, double sim_time) {
  current_ = CyclePhaseRow{};
  current_.cycle = cycle;
  current_.sim_time = sim_time;
  // Inter-cycle phase time (event processing, predict-on-arrival, fault
  // delivery) belongs to the cycle it precedes.
  current_.phase_seconds = pending_;
  pending_.fill(0.0);
  current_.twin_sweep_seconds = pending_twin_;
  pending_twin_ = 0.0;
  cycle_open_ = true;
  Tracer::Global().SetCycle(cycle);
}

void CycleProfiler::AddPhase(Phase phase, double seconds) {
  auto& sink = cycle_open_ ? current_.phase_seconds : pending_;
  sink[static_cast<size_t>(phase)] += seconds;
}

void CycleProfiler::AddTwinSweep(double seconds) {
  if (cycle_open_) {
    current_.twin_sweep_seconds += seconds;
  } else {
    pending_twin_ += seconds;
  }
}

void CycleProfiler::EndCycle(const CycleTelemetry& telemetry) {
  if (!cycle_open_) {
    return;
  }
  static_cast<CycleTelemetry&>(current_) = telemetry;
  rows_.push_back(current_);
  cycle_open_ = false;
  Tracer::Global().SetCycle(-1);
}

void CycleProfiler::WriteCsv(std::ostream& os) const {
  os << "cycle,sim_time";
  for (size_t p = 0; p < static_cast<size_t>(Phase::kCount); ++p) {
    os << "," << PhaseName(static_cast<Phase>(p)) << "_s";
  }
  os << ",sched_phase_sum_s";
  for (const CycleField& f : kCycleFields) {
    os << "," << f.name;
  }
  os << ",twin_sweep_s\n";
  for (const CyclePhaseRow& row : rows_) {
    os << row.cycle << "," << row.sim_time;
    for (size_t p = 0; p < static_cast<size_t>(Phase::kCount); ++p) {
      os << "," << row.phase_seconds[p];
    }
    os << "," << row.sched_phase_seconds();
    for (const CycleField& f : kCycleFields) {
      WriteCycleField(os << ",", row, f);
    }
    os << "," << row.twin_sweep_seconds << "\n";
  }
}

void CycleProfiler::Clear() {
  rows_.clear();
  current_ = CyclePhaseRow{};
  cycle_open_ = false;
  pending_.fill(0.0);
  pending_twin_ = 0.0;
}

DecisionLog& DecisionLog::Global() {
  static DecisionLog* const log = new DecisionLog();
  return *log;
}

void DecisionLog::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void DecisionLog::Record(DecisionRecord record) { records_.push_back(std::move(record)); }

namespace {

void WriteJobGroupList(std::ostream& os, const std::vector<std::pair<int64_t, int>>& items) {
  bool first = true;
  for (const auto& [job, group] : items) {
    if (!first) {
      os << ";";
    }
    first = false;
    os << job << "@" << group;
  }
}

void WriteJobList(std::ostream& os, const std::vector<int64_t>& items) {
  bool first = true;
  for (int64_t job : items) {
    if (!first) {
      os << ";";
    }
    first = false;
    os << job;
  }
}

}  // namespace

void DecisionLog::WriteCsv(std::ostream& os) const {
  os << "cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n";
  for (const DecisionRecord& record : records_) {
    os << record.cycle << "," << record.sim_time << "," << record.pending << ","
       << record.running << ",";
    WriteJobGroupList(os, record.starts);
    os << ",";
    WriteJobList(os, record.preempts);
    os << ",";
    WriteJobList(os, record.abandons);
    os << ",";
    WriteJobGroupList(os, record.deferred);
    os << "\n";
  }
}

std::string DecisionLog::ToCsvString() const {
  std::ostringstream os;
  WriteCsv(os);
  return os.str();
}

void DecisionLog::Clear() { records_.clear(); }

}  // namespace obs
}  // namespace threesigma
