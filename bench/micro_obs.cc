// Observability overhead micro-benchmarks.
//
// The subsystem's compiled-in-but-gated contract is: with every facility
// disabled, an instrumentation site costs one relaxed atomic load and branch
// (spans) or one relaxed fetch_add (counters). This bench measures
// those site costs directly, then scales them by the number of sites a
// fig06_e2e-configuration run actually executes to report the headline
//
//   disabled_overhead_percent — estimated instrumentation cost with all
//       gates off, as a percentage of the end-to-end simulation wall clock.
//
// The acceptance floor for the subsystem is < 1%. CI uploads BENCH_obs.json
// to track the trajectory (wall clock on shared runners is noisy; the site
// counts are deterministic).
//
// Supporting series: per-site disabled/enabled span cost, counter
// increment cost, and the full e2e run with observability off vs fully on.

#include <chrono>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/obs/obs.h"

namespace threesigma {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The fig06_e2e configuration (high-fidelity "RC256" mode) at a
// bench-friendly window: instrumentation density per cycle is what matters,
// not the window length.
ExperimentConfig Fig06Config() {
  ExperimentConfig config = MakeE2EConfig(/*base_hours=*/1.0);
  config.workload.duration = Minutes(6.0);
  config.sim.fidelity = SimFidelity::kHighFidelity;
  return config;
}

struct Fixture {
  ExperimentConfig config;
  GeneratedWorkload workload;

  Fixture() : config(Fig06Config()) {
    workload = GenerateWorkload(config.cluster, config.workload);
  }
};

Fixture& GetFixture() {
  static Fixture* const fixture = new Fixture();
  return *fixture;
}

void ConfigureAllOn() {
  obs::Options options;
  options.tracing = true;
  options.profiler = true;
  options.decisions = true;
  obs::Configure(options);
}

// One span site with the gate off: the promised single load + branch.
void BM_DisabledSpanSite(benchmark::State& state) {
  obs::ResetAll();
  for (auto _ : state) {
    TS_OBS_SPAN("bench.disabled_site", obs::Phase::kOther);
  }
}
BENCHMARK(BM_DisabledSpanSite);

// The same site with tracing on: two clock reads + one ring write.
void BM_EnabledSpanSite(benchmark::State& state) {
  obs::ResetAll();
  obs::Options options;
  options.tracing = true;
  obs::Configure(options);
  for (auto _ : state) {
    TS_OBS_SPAN("bench.enabled_site", obs::Phase::kOther);
  }
  obs::ResetAll();
}
BENCHMARK(BM_EnabledSpanSite);

// A registry counter bump (ungated; identical on disabled and enabled runs).
void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.counter_site");
  for (auto _ : state) {
    counter->Increment();
  }
  obs::ResetAll();
}
BENCHMARK(BM_CounterIncrement);

// Full fig06-config simulation with every facility off — the production
// default — plus the headline disabled-overhead estimate.
void BM_E2EObsDisabled(benchmark::State& state) {
  Fixture& f = GetFixture();
  obs::ResetAll();
  double run_seconds = 0.0;
  int64_t runs = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    SimResult result = SimulateSystem(SystemKind::kThreeSigma, f.config, f.workload);
    run_seconds += SecondsSince(start);
    ++runs;
    benchmark::DoNotOptimize(result.jobs.data());
  }

  // Per-site disabled cost, measured inline on this machine.
  obs::ResetAll();
  constexpr int64_t kProbe = 8'000'000;
  const auto probe_start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < kProbe; ++i) {
    TS_OBS_SPAN("bench.probe_site", obs::Phase::kOther);
  }
  const double site_seconds = SecondsSince(probe_start) / static_cast<double>(kProbe);

  // How many gated sites one run executes: spans emitted (retained +
  // overwritten) from a traced replay, counter adds from the registry (an
  // upper bound — Add(n) counts n — and a fetch_add costs about the same as
  // the span gate, so the estimate stays conservative).
  ConfigureAllOn();
  obs::Tracer::Global().Clear();
  (void)SimulateSystem(SystemKind::kThreeSigma, f.config, f.workload);
  const double span_sites =
      static_cast<double>(obs::Tracer::Global().CollectSpans().size()) +
      static_cast<double>(obs::Tracer::Global().dropped());
  double counter_adds = 0.0;
  for (const auto& [name, value] : obs::MetricsRegistry::Global().CounterValues()) {
    counter_adds += static_cast<double>(value);
  }
  obs::ResetAll();

  const double e2e_seconds = run_seconds / static_cast<double>(runs);
  state.counters["e2e_seconds"] = e2e_seconds;
  state.counters["span_sites"] = span_sites;
  state.counters["counter_adds"] = counter_adds;
  state.counters["site_ns"] = site_seconds * 1e9;
  state.counters["disabled_overhead_percent"] =
      100.0 * (span_sites + counter_adds) * site_seconds / e2e_seconds;
}
BENCHMARK(BM_E2EObsDisabled)->Unit(benchmark::kMillisecond);

// The same simulation with tracing + profiler + decision log all on; the
// delta against BM_E2EObsDisabled is the fully-enabled cost (and the two
// must produce identical scheduling decisions — tests/obs_property_test.cc).
void BM_E2EObsEnabled(benchmark::State& state) {
  Fixture& f = GetFixture();
  obs::ResetAll();
  ConfigureAllOn();
  for (auto _ : state) {
    SimResult result = SimulateSystem(SystemKind::kThreeSigma, f.config, f.workload);
    benchmark::DoNotOptimize(result.jobs.data());
  }
  state.counters["spans_retained"] =
      static_cast<double>(obs::Tracer::Global().CollectSpans().size());
  state.counters["profiler_rows"] =
      static_cast<double>(obs::CycleProfiler::Global().rows().size());
  obs::ResetAll();
}
BENCHMARK(BM_E2EObsEnabled)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace threesigma

BENCHMARK_MAIN();
