// Deterministic trace of a finished simulation, for the byte-identity tests
// (thread counts, fault injection, checkpoint -> resume).

#ifndef TESTS_SIM_TRACE_H_
#define TESTS_SIM_TRACE_H_

#include <iomanip>
#include <set>
#include <sstream>
#include <string>

#include "src/metrics/report.h"
#include "src/obs/cycle_telemetry.h"
#include "src/sim/simulator.h"

namespace threesigma {

// Every deterministic field of `result`: job records with their runs, one
// line per cycle with its time and every count field of its telemetry (wall
// clock differs run to run and is left out, as are the cycle fields named in
// `skip_cycle_fields`), the applied fault events, and the run totals.
inline std::string SimTrace(const SimResult& result,
                            const std::set<std::string>& skip_cycle_fields = {}) {
  std::ostringstream os;
  os << std::setprecision(17);
  WriteJobRecordsCsv(os, result.jobs);
  for (const JobRecord& job : result.jobs) {
    os << "runs " << job.spec.id;
    for (const JobRun& run : job.runs) {
      os << " [" << run.group << " " << run.start << " " << run.end << " " << run.completed
         << "]";
    }
    os << "\n";
  }
  for (const CycleStats& c : result.cycles) {
    os << "cycle " << c.time;
    for (const CycleField& f : kCycleFields) {
      if (f.count != nullptr && skip_cycle_fields.count(f.name) == 0) {
        os << " " << f.name << "=" << c.*f.count;
      }
    }
    os << "\n";
  }
  for (const FaultEvent& ev : result.fault_events) {
    os << "fault " << ev.time << " k" << static_cast<int>(ev.kind) << " g" << ev.group << " c"
       << ev.count << "\n";
  }
  os << "rejected " << result.rejected_placements << " preempts " << result.total_preemptions
     << " kills " << result.tasks_killed_by_faults << " node_events "
     << result.fault_node_events << " stalls " << result.stalled_cycles << " rework "
     << result.rework_node_seconds << " down " << result.node_downtime_fraction << " avail "
     << result.available_node_seconds << " end " << result.end_time << "\n";
  return os.str();
}

}  // namespace threesigma

#endif  // TESTS_SIM_TRACE_H_
