// Valuation-engine micro-benchmarks (google-benchmark): closed-form Eq. 1
// kernels vs the generic std::function per-atom loop, table build/cache-hit
// costs, and the end-to-end per-job valuation (every (group, start-slot)
// option of one job) both ways.
//
// The distribution is fig06-shaped: an 80-bin streaming histogram over
// LogNormal(5.0, 1.0) runtimes, the same shape BM_ExpectedUtilityEvaluation
// in micro_predict.cc uses. After the registered benchmarks run, main()
// measures and prints the single-threaded per-job valuation speedup
// (generic / engine) directly, so CI logs carry the headline number without
// JSON post-processing.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "src/cluster/utility.h"
#include "src/common/rng.h"
#include "src/histogram/empirical_distribution.h"
#include "src/histogram/stream_histogram.h"
#include "src/sched/valuation.h"

namespace threesigma {
namespace {

// One job's valuation problem, shaped like the scheduler's hot loop: 4
// placement groups at distinct runtime multipliers, 20 start slots.
constexpr int kGroups = 4;
constexpr int kSlots = 20;
constexpr double kDelta = 30.0;
constexpr double kGroupMult[kGroups] = {1.0, 1.25, 1.5, 2.0};

EmpiricalDistribution Fig06Distribution() {
  Rng rng(3);
  StreamHistogram hist(80);
  for (int i = 0; i < 10000; ++i) {
    hist.Update(rng.LogNormal(5.0, 1.0));
  }
  return EmpiricalDistribution::FromHistogram(hist);
}

UtilityFunction UtilityFor(int kind) {
  switch (kind) {
    case 0:
      return UtilityFunction::SloStep(10.0, 600.0);
    case 1:
      return UtilityFunction::SloStepWithDecay(10.0, 600.0, 300.0);
    default:
      return UtilityFunction::BestEffortLinear(10.0, 0.0, 3600.0);
  }
}

// The generic computation the engine replaces: Scaled() materialization per
// group, Survival per slot offset, and the std::function-free template
// ExpectedValue per start slot.
double ValueJobGeneric(const EmpiricalDistribution& dist, const UtilityFunction& u) {
  double acc = 0.0;
  for (int g = 0; g < kGroups; ++g) {
    const double mult = kGroupMult[g];
    const EmpiricalDistribution scaled = mult == 1.0 ? dist : dist.Scaled(mult);
    for (int d = 0; d < kSlots; ++d) {
      acc += scaled.Survival(d * kDelta);
    }
    for (int s = 0; s < kSlots; ++s) {
      const double start = s * kDelta;
      acc += scaled.ExpectedValue(
          [&](double t) { return u.ValueAtCompletion(start + t); });
    }
  }
  return acc;
}

// The engine path with warm tables (the steady-state cycle: every lookup a
// cache hit, kernels only).
double ValueJobEngine(const ValuationEngine& engine, const UtilityFunction& u) {
  double acc = 0.0;
  for (int g = 0; g < kGroups; ++g) {
    const ValuationTables* tables = engine.Find(1, kGroupMult[g]);
    for (int d = 0; d < kSlots; ++d) {
      acc += engine.Survival(*tables, d * kDelta);
    }
    for (int s = 0; s < kSlots; ++s) {
      acc += engine.ExpectedUtility(*tables, u, s * kDelta, nullptr);
    }
  }
  return acc;
}

ValuationEngine WarmEngine(const EmpiricalDistribution& dist, const UtilityFunction& u) {
  ValuationEngine engine;
  for (int g = 0; g < kGroups; ++g) {
    engine.Tables(1, kGroupMult[g], dist, u, nullptr);
  }
  return engine;
}

void BM_ExpectedUtilityGeneric(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(static_cast<int>(state.range(0)));
  double start = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.ExpectedValue(
        [&](double t) { return u.ValueAtCompletion(start + t); }));
    start += 10.0;
    if (start > 1200.0) {
      start = 0.0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpectedUtilityGeneric)->Arg(0)->Arg(1)->Arg(2);

void BM_ExpectedUtilityKernel(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(static_cast<int>(state.range(0)));
  ValuationEngine engine = WarmEngine(dist, u);
  const ValuationTables* tables = engine.Find(1, 1.0);
  double start = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ExpectedUtility(*tables, u, start, nullptr));
    start += 10.0;
    if (start > 1200.0) {
      start = 0.0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpectedUtilityKernel)->Arg(0)->Arg(1)->Arg(2);

void BM_SurvivalGeneric(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Survival(t));
    t += 17.0;
    if (t > 2000.0) {
      t = 0.0;
    }
  }
}
BENCHMARK(BM_SurvivalGeneric);

void BM_SurvivalTable(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(0);
  ValuationEngine engine = WarmEngine(dist, u);
  const ValuationTables* tables = engine.Find(1, 1.0);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables->Survival(t));
    t += 17.0;
    if (t > 2000.0) {
      t = 0.0;
    }
  }
}
BENCHMARK(BM_SurvivalTable);

void BM_TablesBuildMiss(benchmark::State& state) {
  // Cold cost per (job, scale): one Scaled() call + prefix sums.
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(0);
  for (auto _ : state) {
    ValuationEngine engine;
    benchmark::DoNotOptimize(engine.Tables(1, 1.5, dist, u, nullptr));
  }
}
BENCHMARK(BM_TablesBuildMiss);

void BM_TablesCacheHit(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(0);
  ValuationEngine engine = WarmEngine(dist, u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Tables(1, 1.5, dist, u, nullptr));
  }
}
BENCHMARK(BM_TablesCacheHit);

void BM_PerJobValuationGeneric(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueJobGeneric(dist, u));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerJobValuationGeneric)->Arg(0)->Arg(1)->Arg(2);

void BM_PerJobValuationEngine(benchmark::State& state) {
  const EmpiricalDistribution dist = Fig06Distribution();
  const UtilityFunction u = UtilityFor(static_cast<int>(state.range(0)));
  ValuationEngine engine = WarmEngine(dist, u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueJobEngine(engine, u));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerJobValuationEngine)->Arg(0)->Arg(1)->Arg(2);

// Direct single-threaded speedup measurement for the CI log: jobs/second
// valuing one job both ways, per utility kind.
void PrintSpeedupSummary() {
  const EmpiricalDistribution dist = Fig06Distribution();
  const char* names[3] = {"step", "step_decay", "linear"};
  std::printf("\nper-job valuation throughput (single thread, fig06 shape)\n");
  std::printf("%-12s %14s %14s %9s\n", "utility", "generic(job/s)", "engine(job/s)", "speedup");
  for (int kind = 0; kind < 3; ++kind) {
    const UtilityFunction u = UtilityFor(kind);
    ValuationEngine engine = WarmEngine(dist, u);
    const auto rate = [](const auto& fn) {
      using Clock = std::chrono::steady_clock;
      // Warm up, then time enough iterations for a stable read.
      double sink = 0.0;
      for (int i = 0; i < 20; ++i) {
        sink += fn();
      }
      int iters = 200;
      Clock::duration elapsed{};
      for (;;) {
        const auto begin = Clock::now();
        for (int i = 0; i < iters; ++i) {
          sink += fn();
        }
        elapsed = Clock::now() - begin;
        if (elapsed >= std::chrono::milliseconds(100)) {
          break;
        }
        iters *= 4;
      }
      benchmark::DoNotOptimize(sink);
      return static_cast<double>(iters) /
             std::chrono::duration<double>(elapsed).count();
    };
    const double generic = rate([&] { return ValueJobGeneric(dist, u); });
    const double engine_rate = rate([&] { return ValueJobEngine(engine, u); });
    std::printf("%-12s %14.0f %14.0f %8.1fx\n", names[kind], generic, engine_rate,
                engine_rate / generic);
  }
}

}  // namespace
}  // namespace threesigma

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  threesigma::PrintSpeedupSummary();
  return 0;
}
