// Observability subsystem entry point: options, runtime gating, and export.
//
// The subsystem is compiled in unconditionally and gated at runtime: with
// everything disabled (the default) each instrumentation site costs one
// relaxed atomic load and branch, and enabling any of it never changes a
// scheduling decision (property-tested in tests/obs_property_test.cc).
//
// Three independently gated facilities share the gates set by Configure():
//   - metrics registry  (src/obs/registry.h) — always collecting; counter
//     adds happen at solve/cycle/event granularity, far below the <1%
//     overhead budget (bench/micro_obs.cc measures it).
//   - span tracer       (src/obs/trace.h)    — options.tracing/profiler.
//   - cycle profiler + decision log (src/obs/profiler.h).
//
// Flush() writes every configured export sink:
//   --trace-out          Chrome trace_event JSON (chrome://tracing).
//   --trace-bin-out      binary trace via the snapshot codec (diffable).
//   --obs-phase-csv      per-cycle phase-latency table.
//   --obs-decisions-csv  per-cycle decision log (golden-trace input).
//   --obs-metrics-out    registry text dump.
//
// Bench binaries pick the same knobs up from THREESIGMA_OBS_* environment
// variables via ApplyEnv (see bench/bench_util.h for the knob table).

#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <cstdint>
#include <string>

#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace obs {

struct Options {
  // Gates. `tracing` records spans into rings (needed for the JSON/binary
  // exports); `profiler` builds the per-cycle phase table (implies span
  // timing but not ring retention); `decisions` records the per-cycle
  // decision log.
  bool tracing = false;
  bool profiler = false;
  bool decisions = false;

  // Span ring capacity (records); oldest spans drop on wrap.
  int64_t ring_capacity = 1 << 16;

  // Export sinks, written by Flush(). Empty = not written.
  std::string trace_json_out;
  std::string trace_bin_out;
  std::string phase_csv_out;
  std::string decisions_csv_out;
  std::string metrics_out;

  bool any() const {
    return tracing || profiler || decisions || !trace_json_out.empty() ||
           !trace_bin_out.empty() || !phase_csv_out.empty() || !decisions_csv_out.empty() ||
           !metrics_out.empty();
  }
};

// Applies gates and remembers sinks for Flush(). Sinks named in `options`
// auto-enable the facility that feeds them (e.g. trace_json_out => tracing).
// Idempotent; later calls replace the configuration.
void Configure(const Options& options);

// The configuration last passed to Configure().
const Options& CurrentOptions();

// Writes every configured sink. Returns false with `*error` on IO failure.
bool Flush(std::string* error = nullptr);

// Disables all gates and clears collected spans, profiler rows, decision
// records, and registry values. For tests and run scoping.
void ResetAll();

// Overlays THREESIGMA_OBS_* environment knobs (unset leaves the field):
//   THREESIGMA_OBS_TRACE=<path>          trace_json_out (+ tracing)
//   THREESIGMA_OBS_TRACE_BIN=<path>      trace_bin_out (+ tracing)
//   THREESIGMA_OBS_PHASE_CSV=<path>      phase_csv_out (+ profiler)
//   THREESIGMA_OBS_DECISIONS_CSV=<path>  decisions_csv_out (+ decisions)
//   THREESIGMA_OBS_METRICS=<path>        metrics_out
//   THREESIGMA_OBS_RING=<n>              ring_capacity
void ApplyEnv(Options* options);

}  // namespace obs
}  // namespace threesigma

#endif  // SRC_OBS_OBS_H_
