// Per-cycle scheduler telemetry, declared once.
//
// THREESIGMA_CYCLE_TELEMETRY(X) lists every per-cycle counter as
// X(type, name, rollup). CycleTelemetry is generated from it; CycleResult
// (the scheduler's output), CycleStats (the simulator's per-cycle record) and
// obs::CyclePhaseRow (the phase CSV row) inherit it, and every export walks
// kCycleFields instead of naming fields:
//   - snapshot: count fields in list order as varints (the "metrics"
//     section), wall-clock fields as doubles (the "timing" section);
//   - RunMetrics: every field's run total and per-cycle maximum;
//   - run-metrics CSV: total_<name> for Sum, max_<name> for Max, both for
//     WallClock;
//   - phase CSV: one <name> column per field;
//   - registry (and so the MetricsDump RPC): one sched.<name> counter per
//     count field.
//
// Roll-ups:
//   Sum        a deterministic count. The run reports its total; the registry
//              counter adds it up.
//   Max        a deterministic size or level. The run reports its maximum;
//              the registry counter holds the high-water mark.
//   WallClock  seconds of wall time. Not reproducible, so kept out of the
//              registry and of the deterministic "metrics" snapshot section.
//              The run reports its total and maximum.
//
// A new counter is one line at the end of the list plus its increment where
// it is measured (the scheduler fills most fields; the simulator fills
// pending and running_jobs). The list order is the snapshot byte order, so
// any change to the list changes the "metrics"/"timing" section layout and
// needs a kSnapshotVersion bump (a static_assert in simulator.cc enforces it).

#ifndef SRC_OBS_CYCLE_TELEMETRY_H_
#define SRC_OBS_CYCLE_TELEMETRY_H_

#include <cstdint>
#include <ostream>
#include <type_traits>

#define THREESIGMA_CYCLE_TELEMETRY(X)                                                     \
  /* Full cycle (valuation + formulation + solve) and MILP solve latency. */              \
  X(double, cycle_seconds, WallClock)                                                     \
  X(double, solver_seconds, WallClock)                                                    \
  /* MILP size and branch-and-bound nodes explored. */                                    \
  X(int64_t, milp_variables, Max)                                                         \
  X(int64_t, milp_rows, Max)                                                              \
  X(int64_t, milp_nodes, Sum)                                                             \
  /* Arrived pending jobs and running jobs the cycle saw (set by the simulator). */       \
  X(int64_t, pending, Max)                                                                \
  X(int64_t, running_jobs, Max)                                                           \
  /* Branch-and-bound: deepest subproblem queue, incumbent improvements. */               \
  X(int64_t, milp_max_queue_depth, Max)                                                   \
  X(int64_t, milp_incumbent_improvements, Sum)                                            \
  /* Expected-capacity cache: running jobs served from their cached survival */           \
  /* vector vs. recomputed. */                                                            \
  X(int64_t, capacity_cache_hits, Sum)                                                    \
  X(int64_t, capacity_cache_misses, Sum)                                                  \
  /* Valuation engine: Eq. 1 table cache traffic and kernel evaluations. */               \
  X(int64_t, valuation_cache_hits, Sum)                                                   \
  X(int64_t, valuation_cache_misses, Sum)                                                 \
  X(int64_t, valuation_kernel_calls, Sum)                                                 \
  /* Solver: LP pivots over every node, the root relaxation's share, and */               \
  /* whether the root started from last cycle's mapped basis (0/1). */                    \
  X(int64_t, lp_pivots, Sum)                                                              \
  X(int64_t, root_pivots, Sum)                                                            \
  X(int64_t, root_warm, Sum)                                                              \
  /* Solver: FTRAN/BTRAN solves and basis reinversions over every node, and */            \
  /* the nodes whose LP resumed a start basis without a cold restart. */                  \
  X(int64_t, ftran, Sum)                                                                  \
  X(int64_t, btran, Sum)                                                                  \
  X(int64_t, refactorizations, Sum)                                                       \
  X(int64_t, warm_started_nodes, Sum)                                                     \
  /* New fields go above this line. */

namespace threesigma {

enum class Rollup { kSum, kMax, kWallClock };

struct CycleTelemetry {
#define THREESIGMA_DECLARE_FIELD(type, name, rollup)                                  \
  type name = 0;                                                                      \
  static_assert((Rollup::k##rollup == Rollup::kWallClock) == std::is_same_v<type, double>, \
                #name ": wall-clock fields are double seconds, counts are int64_t");
  THREESIGMA_CYCLE_TELEMETRY(THREESIGMA_DECLARE_FIELD)
#undef THREESIGMA_DECLARE_FIELD
};

// One list entry for generic consumers. Exactly one of `count` and `seconds`
// is set, by the entry's type.
struct CycleField {
  const char* name;
  Rollup rollup;
  int64_t CycleTelemetry::*count;
  double CycleTelemetry::*seconds;
};

namespace internal {
constexpr CycleField MakeCycleField(const char* name, Rollup rollup,
                                    int64_t CycleTelemetry::*count) {
  return {name, rollup, count, nullptr};
}
constexpr CycleField MakeCycleField(const char* name, Rollup rollup,
                                    double CycleTelemetry::*seconds) {
  return {name, rollup, nullptr, seconds};
}
}  // namespace internal

inline constexpr CycleField kCycleFields[] = {
#define THREESIGMA_FIELD_ENTRY(type, name, rollup) \
  internal::MakeCycleField(#name, Rollup::k##rollup, &CycleTelemetry::name),
    THREESIGMA_CYCLE_TELEMETRY(THREESIGMA_FIELD_ENTRY)
#undef THREESIGMA_FIELD_ENTRY
};

// Streams one field of `t`: counts as integers, seconds as doubles.
inline std::ostream& WriteCycleField(std::ostream& os, const CycleTelemetry& t,
                                     const CycleField& f) {
  return f.count != nullptr ? os << t.*f.count : os << t.*f.seconds;
}

}  // namespace threesigma

#endif  // SRC_OBS_CYCLE_TELEMETRY_H_
