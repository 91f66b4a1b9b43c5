// Digital-twin micro-benchmarks: snapshot-fork latency, speculative
// simulation throughput, and full what-if sweep cost (fork fan-out +
// scenario-index-order report merge).
//
// Reported counters:
//   snapshot_bytes      — live snapshot size each fork restores from
//   cycles_per_second   — speculative scheduling cycles per wall second
//   scenarios           — scenarios per sweep (incl. the implicit baseline)
//
// CI uploads the JSON as BENCH_twin.json to track the trajectory across
// commits (wall-clock on shared runners is noisy; the size counters are
// deterministic).

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/experiment.h"
#include "src/twin/scenario.h"
#include "src/twin/twin.h"

namespace threesigma {
namespace {

// A mid-run 3Sigma system: trained predictor, live jobs, warm scheduler —
// the state a serve daemon forks when a WhatIf RPC arrives.
struct Fixture {
  ExperimentConfig config;
  GeneratedWorkload workload;
  SystemInstance instance;
  DistributionScheduler* sched = nullptr;
  std::unique_ptr<Simulator> sim;
  std::string buffer;

  Fixture() {
    config.cluster = ClusterConfig::Uniform(4, 16);
    config.workload.duration = Minutes(20.0);
    config.workload.load = 1.3;
    config.workload.model_sample_jobs = 800;
    config.workload.pretrain_jobs = 2000;
    config.workload.seed = 7;
    config.sim.cycle_period = 10.0;
    config.sim.seed = 7;
    config.sched.cycle_period = config.sim.cycle_period;
    config.sched.solver_time_limit_seconds = 0.0;
    workload = GenerateWorkload(config.cluster, config.workload);
    instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
    for (const JobSpec& job : workload.pretrain) {
      instance.predictor->RecordCompletion(job.features, job.true_runtime);
    }
    sched = dynamic_cast<DistributionScheduler*>(instance.scheduler.get());
    sim = std::make_unique<Simulator>(config.cluster, instance.scheduler.get(), workload.jobs,
                                      config.sim);
    for (int i = 0; i < 30 && sim->Step(); ++i) {
    }
    buffer = sim->SaveStateToBuffer();
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Fork construction alone: borrowed-reader restore of the full live state
// into an isolated clone. This is the fixed cost every scenario pays.
void BM_TwinFork(benchmark::State& state) {
  Fixture& f = GetFixture();
  const Scenario baseline;  // No overrides: pure restore.
  for (auto _ : state) {
    TwinFork fork(f.buffer, f.config.cluster, SystemKind::kThreeSigma, f.sched->config(),
                  baseline);
    benchmark::DoNotOptimize(fork.ok());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(f.buffer.size());
}
BENCHMARK(BM_TwinFork)->Unit(benchmark::kMillisecond);

// Fork + H speculative cycles: the marginal cost of looking further ahead.
void BM_TwinSpeculate(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int horizon = static_cast<int>(state.range(0));
  const Scenario baseline;
  int64_t cycles = 0;
  for (auto _ : state) {
    TwinFork fork(f.buffer, f.config.cluster, SystemKind::kThreeSigma, f.sched->config(),
                  baseline);
    const ScenarioOutcome outcome = fork.Speculate(horizon);
    cycles += outcome.speculative_cycles;
    benchmark::DoNotOptimize(outcome.projected_utility);
  }
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TwinSpeculate)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

// The full RPC-shaped sweep: K scenarios fanned out on the engine's pool of
// Arg() threads (the live scheduler's solver_threads), outcomes merged in
// scenario-index order, advisor verdict, text report.
void BM_TwinWhatIfSweep(benchmark::State& state) {
  Fixture& f = GetFixture();
  DistSchedulerConfig config = f.sched->config();
  config.solver_threads = static_cast<int>(state.range(0));
  f.sched->UpdateConfig(config);
  TwinOptions options;
  options.horizon_cycles = 25;
  WhatIfEngine engine(f.config.cluster, f.sched, options);
  const std::vector<Scenario> scenarios = DefaultScenarios();
  size_t report_bytes = 0;
  for (auto _ : state) {
    const WhatIfReport report = engine.Run(*f.sim, scenarios, options.horizon_cycles);
    report_bytes = report.ToText().size();
    benchmark::DoNotOptimize(report.best_index);
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size() + 1);
  state.counters["report_bytes"] = static_cast<double>(report_bytes);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TwinWhatIfSweep)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// Report merge + render in isolation: K pre-computed outcomes assembled into
// the deterministic text payload the WhatIf RPC returns.
void BM_TwinReportMerge(benchmark::State& state) {
  Fixture& f = GetFixture();
  TwinOptions options;
  options.horizon_cycles = 25;
  WhatIfEngine engine(f.config.cluster, f.sched, options);
  const WhatIfReport report = engine.Run(*f.sim, DefaultScenarios(), options.horizon_cycles);
  for (auto _ : state) {
    const std::string text = report.ToText();
    benchmark::DoNotOptimize(text);
  }
  state.counters["report_bytes"] = static_cast<double>(report.ToText().size());
}
BENCHMARK(BM_TwinReportMerge)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace threesigma

BENCHMARK_MAIN();
