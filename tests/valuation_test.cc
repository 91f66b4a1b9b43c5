// Differential tests for the Eq. 1 valuation engine (src/sched/valuation.h).
//
// The engine's whole contract is *bitwise* agreement with the generic
// per-atom path: ExpectedUtility must replay EmpiricalDistribution::
// ExpectedValue over the scaled distribution, and the survival tables must
// replay Scaled(scale).Survival — for every utility shape, scale, and start
// time, including the degenerate inputs (NaN starts, single-atom
// distributions, empty distributions, elapsed past the last atom). Equality
// is checked on the bit pattern, not operator==, so a NaN divergence cannot
// slip through. The crosscheck mode that turns these comparisons into
// runtime aborts must also catch a stale cached table.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/histogram/empirical_distribution.h"
#include "src/sched/valuation.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// The generic Eq. 1 evaluation the kernels must replicate: materialize the
// scaled distribution (skipped at scale 1), then accumulate
// utility·probability per atom in order.
double GenericExpectedUtility(const EmpiricalDistribution& dist, double scale,
                              const UtilityFunction& u, double start) {
  const EmpiricalDistribution scaled = scale == 1.0 ? dist : dist.Scaled(scale);
  return scaled.ExpectedValue(
      [&](double t) { return u.ValueAtCompletion(start + t); });
}

double GenericSurvival(const EmpiricalDistribution& dist, double scale, double t) {
  const EmpiricalDistribution scaled = scale == 1.0 ? dist : dist.Scaled(scale);
  return scaled.Survival(t);
}

EmpiricalDistribution RandomDistribution(Rng& rng, int atoms) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(atoms));
  for (int i = 0; i < atoms; ++i) {
    // Heavy-tailed runtimes with occasional exact duplicates, so the
    // sort/merge path in FromAtoms is exercised.
    double v = rng.BoundedPareto(1.0, 50000.0, 1.2);
    if (!samples.empty() && rng.Uniform(0.0, 1.0) < 0.1) {
      v = samples[static_cast<size_t>(rng.Uniform(0.0, 0.999) *
                                      static_cast<double>(samples.size()))];
    }
    samples.push_back(v);
  }
  return EmpiricalDistribution::FromSamples(samples);
}

TEST(ValuationTest, KernelsMatchGenericLoopBitwise) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const int atoms = 1 + static_cast<int>(rng.Uniform(0.0, 120.0));  // Incl. single-atom.
    const EmpiricalDistribution dist = RandomDistribution(rng, atoms);
    const double deadline = rng.Uniform(0.0, 1.5 * dist.MaxValue());
    const double window = rng.Uniform(1.0, 2.0 * deadline + 10.0);
    const std::vector<UtilityFunction> utilities = {
        UtilityFunction::SloStep(rng.Uniform(0.5, 100.0), deadline),
        UtilityFunction::SloStepWithDecay(rng.Uniform(0.5, 100.0), deadline, window),
        UtilityFunction::BestEffortLinear(rng.Uniform(0.5, 100.0), rng.Uniform(0.0, deadline),
                                          window),
    };
    const std::vector<double> scales = {1.0, 0.5, rng.Uniform(0.25, 4.0)};
    for (const UtilityFunction& u : utilities) {
      for (const double scale : scales) {
        ValuationEngine engine;
        const ValuationTables& tables =
            engine.Tables(/*job=*/1, scale, dist, u, /*counters=*/nullptr);
        // Starts spanning before / across / far past the deadline, plus NaN.
        for (const double start :
             {0.0, deadline * 0.5, deadline, deadline + 1.0, deadline + window,
              deadline + 10.0 * window, dist.MaxValue() * scale * 2.0, kNaN}) {
          const double kernel = engine.ExpectedUtility(tables, u, start, nullptr);
          const double generic = GenericExpectedUtility(dist, scale, u, start);
          EXPECT_EQ(Bits(kernel), Bits(generic))
              << "seed " << seed << " kind " << static_cast<int>(u.kind()) << " scale "
              << scale << " start " << start << ": kernel " << kernel << " generic "
              << generic;
        }
        for (const double t :
             {0.0, dist.MinValue() * scale, dist.MaxValue() * scale * 0.5,
              dist.MaxValue() * scale, dist.MaxValue() * scale + 1.0, kNaN}) {
          EXPECT_EQ(Bits(engine.Survival(tables, t)), Bits(GenericSurvival(dist, scale, t)))
              << "seed " << seed << " scale " << scale << " t " << t;
        }
      }
    }
  }
}

TEST(ValuationTest, EmptyDistributionYieldsTrivialTables) {
  // The generic valuation loops never execute on an empty distribution
  // (EU 0.0, survival 1.0); the engine's tables must agree rather than abort
  // in Scaled()/FromAtoms.
  const EmpiricalDistribution empty;
  const UtilityFunction u = UtilityFunction::SloStep(5.0, 100.0);
  ValuationEngine engine(/*crosscheck=*/true);
  for (const double scale : {1.0, 0.5, 2.0}) {
    const ValuationTables& tables = engine.Tables(7, scale, empty, u, nullptr);
    EXPECT_EQ(tables.size(), 0u);
    EXPECT_EQ(engine.ExpectedUtility(tables, u, 0.0, nullptr), 0.0);
    EXPECT_EQ(engine.Survival(tables, 50.0), 1.0);
  }
}

TEST(ValuationTest, CrosscheckModePassesOnRandomInputs) {
  // Crosscheck re-derives every answer with the generic loop and aborts on
  // any bitwise divergence; surviving a randomized sweep is the point.
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    const EmpiricalDistribution dist = RandomDistribution(rng, 60);
    const double deadline = rng.Uniform(10.0, dist.MaxValue());
    const UtilityFunction u = UtilityFunction::SloStepWithDecay(10.0, deadline, deadline);
    ValuationEngine engine(/*crosscheck=*/true);
    const ValuationTables& tables = engine.Tables(1, 1.25, dist, u, nullptr);
    for (double start = 0.0; start < 2.0 * deadline; start += deadline / 16.0) {
      (void)engine.ExpectedUtility(tables, u, start, nullptr);
      (void)engine.Survival(tables, start);
    }
  }
}

TEST(ValuationTest, CrosscheckCatchesStaleTable) {
  // A prediction that changes without InvalidateJob leaves a stale table in
  // the cache; crosscheck mode rebuilds the table on every hit and aborts.
  Rng rng(5);
  const EmpiricalDistribution dist_a = RandomDistribution(rng, 30);
  const EmpiricalDistribution dist_b = RandomDistribution(rng, 30);
  const UtilityFunction u = UtilityFunction::SloStep(5.0, 500.0);
  ValuationEngine engine(/*crosscheck=*/true);
  engine.Tables(1, 1.5, dist_a, u, nullptr);
  engine.Tables(1, 1.5, dist_a, u, nullptr);  // A true hit passes.
  EXPECT_DEATH(engine.Tables(1, 1.5, dist_b, u, nullptr), "stale valuation table");
}

TEST(ValuationTest, CacheCountsHitsAndInvalidates) {
  Rng rng(3);
  const EmpiricalDistribution dist = RandomDistribution(rng, 40);
  const UtilityFunction u = UtilityFunction::SloStep(5.0, 500.0);
  ValuationEngine engine;
  ValuationCounters c;
  engine.Tables(1, 1.0, dist, u, &c);
  engine.Tables(1, 2.0, dist, u, &c);
  engine.Tables(2, 1.0, dist, u, &c);
  EXPECT_EQ(c.cache_misses, 3);
  EXPECT_EQ(c.cache_hits, 0);
  engine.Tables(1, 1.0, dist, u, &c);
  engine.Tables(1, 2.0, dist, u, &c);
  EXPECT_EQ(c.cache_hits, 2);
  EXPECT_EQ(engine.cached_entries(), 3u);

  // Per-job invalidation drops exactly job 1's two scales; a re-query is a
  // miss again while job 2 still hits.
  engine.InvalidateJob(1);
  EXPECT_EQ(engine.cached_entries(), 1u);
  engine.Tables(2, 1.0, dist, u, &c);
  EXPECT_EQ(c.cache_hits, 3);
  engine.Tables(1, 1.0, dist, u, &c);
  EXPECT_EQ(c.cache_misses, 4);
}

TEST(ValuationTest, SaveStateRoundTripsKeySet) {
  Rng rng(4);
  const EmpiricalDistribution dist = RandomDistribution(rng, 20);
  const UtilityFunction u = UtilityFunction::SloStep(5.0, 500.0);
  ValuationEngine engine;
  engine.Tables(3, 1.0, dist, u, nullptr);
  engine.Tables(3, 0.75, dist, u, nullptr);
  engine.Tables(9, 1.0, dist, u, nullptr);

  SnapshotWriter writer;
  writer.BeginSection("test", 1);
  engine.SaveState(writer);
  writer.EndSection();
  const std::string blob = writer.Finish();

  SnapshotReader reader(blob);
  ASSERT_TRUE(reader.BeginSection("test"));
  const auto keys = ValuationEngine::ReadSavedKeys(reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(keys.size(), 3u);
  // std::map order: (3, bits(0.75)) < (3, bits(1.0)) < (9, bits(1.0)).
  EXPECT_EQ(keys[0].first, 3);
  EXPECT_EQ(keys[0].second, 0.75);
  EXPECT_EQ(keys[1].first, 3);
  EXPECT_EQ(keys[1].second, 1.0);
  EXPECT_EQ(keys[2].first, 9);
  EXPECT_EQ(keys[2].second, 1.0);
}

}  // namespace
}  // namespace threesigma
