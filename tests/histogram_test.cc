// Unit and property tests for the streaming histogram and the empirical
// distribution (the Eq. 1 / Eq. 2 substrate).

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/histogram/empirical_distribution.h"
#include "src/histogram/stream_histogram.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

TEST(StreamHistogramTest, ExactBelowBudget) {
  StreamHistogram h(10);
  for (double v : {1.0, 2.0, 3.0}) {
    h.Update(v);
  }
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(h.total_count(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(StreamHistogramTest, DuplicatesMergeIntoOneBin) {
  StreamHistogram h(10);
  for (int i = 0; i < 5; ++i) {
    h.Update(7.0);
  }
  EXPECT_EQ(h.bin_count(), 1u);
  EXPECT_DOUBLE_EQ(h.bins()[0].count, 5.0);
  EXPECT_DOUBLE_EQ(h.bins()[0].centroid, 7.0);
}

TEST(StreamHistogramTest, BinBudgetHolds) {
  StreamHistogram h(8);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    h.Update(rng.Uniform(0.0, 100.0));
    EXPECT_LE(h.bin_count(), 8u);
  }
  EXPECT_DOUBLE_EQ(h.total_count(), 10000.0);
}

TEST(StreamHistogramTest, MassConservedUnderMerging) {
  StreamHistogram h(4);
  for (int i = 0; i < 1000; ++i) {
    h.Update(static_cast<double>(i % 37));
  }
  double total = 0.0;
  for (const auto& b : h.bins()) {
    total += b.count;
  }
  EXPECT_NEAR(total, 1000.0, 1e-9);
}

TEST(StreamHistogramTest, CentroidsStaySorted) {
  StreamHistogram h(6);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    h.Update(rng.LogNormal(2.0, 1.5));
    for (size_t b = 1; b < h.bin_count(); ++b) {
      ASSERT_LT(h.bins()[b - 1].centroid, h.bins()[b].centroid);
    }
  }
}

TEST(StreamHistogramTest, EstimateCountMonotone) {
  StreamHistogram h(16);
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    h.Update(rng.Uniform(0.0, 50.0));
  }
  double prev = -1.0;
  for (double v = -5.0; v <= 60.0; v += 0.5) {
    const double c = h.EstimateCountAtMost(v);
    EXPECT_GE(c, prev - 1e-9);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, h.total_count() + 1e-9);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.EstimateCountAtMost(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateCountAtMost(60.0), h.total_count());
}

TEST(StreamHistogramTest, QuantileApproximatesUniform) {
  StreamHistogram h(64);
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    h.Update(rng.Uniform(0.0, 100.0));
  }
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 3.0);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 3.0);
  EXPECT_NEAR(h.Quantile(0.1), 10.0, 3.0);
}

TEST(StreamHistogramTest, MergeMatchesCombinedStream) {
  StreamHistogram a(32);
  StreamHistogram b(32);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    a.Update(rng.Uniform(0.0, 10.0));
    b.Update(rng.Uniform(20.0, 30.0));
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total_count(), 4000.0);
  EXPECT_LE(a.bin_count(), 32u);
  // Median of the combined stream sits in the gap between the two halves.
  const double med = a.Quantile(0.5);
  EXPECT_GT(med, 8.0);
  EXPECT_LT(med, 22.0);
}

TEST(StreamHistogramTest, MergeEmptyIsNoop) {
  StreamHistogram a(8);
  a.Update(1.0);
  StreamHistogram b(8);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total_count(), 1.0);
  b.Merge(a);
  EXPECT_DOUBLE_EQ(b.total_count(), 1.0);
}

TEST(StreamHistogramTest, RestoreRoundTrip) {
  StreamHistogram original(24);
  Rng rng(41);
  for (int i = 0; i < 5000; ++i) {
    original.Update(rng.LogNormal(3.0, 1.2));
  }
  SnapshotWriter writer;
  writer.BeginSection("hist", 1);
  original.SaveState(writer);
  writer.EndSection();
  SnapshotReader reader(writer.Finish());
  ASSERT_TRUE(reader.BeginSection("hist"));
  StreamHistogram restored(2);  // The payload carries the bin budget.
  restored.RestoreState(reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(restored.max_bins(), original.max_bins());
  EXPECT_DOUBLE_EQ(restored.total_count(), original.total_count());
  EXPECT_EQ(restored.bin_count(), original.bin_count());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(restored.Quantile(q), original.Quantile(q));
  }
  // And it keeps streaming identically.
  StreamHistogram a = original;
  StreamHistogram b = restored;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.LogNormal(3.0, 1.2);
    a.Update(v);
    b.Update(v);
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), b.Quantile(0.5));
}

// ---------------------------------------------------------------------------
// EmpiricalDistribution
// ---------------------------------------------------------------------------

TEST(EmpiricalDistributionTest, PointMass) {
  const auto d = EmpiricalDistribution::Point(42.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(d.CdfAtMost(41.9), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAtMost(42.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Survival(41.9), 1.0);
  EXPECT_DOUBLE_EQ(d.Survival(42.0), 0.0);
  EXPECT_DOUBLE_EQ(d.MaxValue(), 42.0);
}

TEST(EmpiricalDistributionTest, FromSamplesNormalizes) {
  const auto d = EmpiricalDistribution::FromSamples({1.0, 2.0, 2.0, 3.0});
  EXPECT_EQ(d.size(), 3u);  // Duplicate 2.0 merged.
  double mass = 0.0;
  for (const auto& a : d.atoms()) {
    mass += a.probability;
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.CdfAtMost(2.0), 0.75);
}

TEST(EmpiricalDistributionTest, StdDevMatchesDefinition) {
  const auto d = EmpiricalDistribution::FromSamples({90.0, 110.0});
  EXPECT_NEAR(d.StdDev(), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(EmpiricalDistribution::Point(5.0).StdDev(), 0.0);
  // Normal discretization recovers its sigma approximately.
  const auto n = EmpiricalDistribution::FromNormal(100.0, 20.0, 401);
  EXPECT_NEAR(n.StdDev(), 20.0, 1.0);
}

TEST(EmpiricalDistributionTest, QuantileInverseOfCdf) {
  const auto d = EmpiricalDistribution::FromSamples({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 10.0);
}

TEST(EmpiricalDistributionTest, ConditionalMatchesEq2) {
  // Eq. 2: 1 - CDF_upd(t) = (1 - CDF(t)) / (1 - CDF(elapsed)).
  const auto d = EmpiricalDistribution::FromSamples({1.0, 2.0, 3.0, 4.0, 5.0});
  const double elapsed = 2.5;
  const auto cond = d.ConditionalGivenExceeds(elapsed);
  ASSERT_FALSE(cond.empty());
  for (double t : {2.6, 3.0, 3.5, 4.0, 4.9, 5.0}) {
    const double expected = d.Survival(t) / d.Survival(elapsed);
    EXPECT_NEAR(cond.Survival(t), expected, 1e-12) << "t=" << t;
  }
  // All mass now sits above `elapsed`.
  EXPECT_DOUBLE_EQ(cond.CdfAtMost(elapsed), 0.0);
  EXPECT_DOUBLE_EQ(cond.MinValue(), 3.0);
}

TEST(EmpiricalDistributionTest, ConditionalBeyondSupportIsEmpty) {
  const auto d = EmpiricalDistribution::FromSamples({1.0, 2.0});
  // Job ran longer than every historical runtime: the §4.2.1 under-estimate
  // signal surfaces as an empty conditional distribution.
  EXPECT_TRUE(d.ConditionalGivenExceeds(2.0).empty());
  EXPECT_TRUE(d.ConditionalGivenExceeds(99.0).empty());
}

TEST(EmpiricalDistributionTest, ConditionalTailViewMatchesConditional) {
  const auto d = EmpiricalDistribution::FromSamples({1.0, 2.0, 3.0, 4.0});
  const auto view = d.ConditionalTail(2.5);
  ASSERT_FALSE(view.empty());
  EXPECT_EQ(view.count, 2u);
  EXPECT_DOUBLE_EQ(view.first[0].value, 3.0);
  EXPECT_NEAR(view.mass, 0.5, 1e-12);
  // The view sees the same survivors the materialized conditional holds.
  const auto cond = d.ConditionalGivenExceeds(2.5);
  ASSERT_EQ(cond.size(), view.count);
  EXPECT_DOUBLE_EQ(cond.MinValue(), view.first[0].value);

  // Elapsed past the last atom: empty view, no materialization.
  EXPECT_TRUE(d.ConditionalTail(4.0).empty());
  EXPECT_TRUE(d.ConditionalTail(1e9).empty());
  // NaN elapsed: every `value > elapsed` comparison is false, so nothing
  // survives — same answer as the materialized path.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(d.ConditionalTail(nan).empty());
  EXPECT_TRUE(d.ConditionalGivenExceeds(nan).empty());
}

TEST(EmpiricalDistributionTest, ConditionalZeroMassTailIsEmptyNotFatal) {
  // A verbatim-restored snapshot can carry zero-probability atoms (the codec
  // round-trips atoms_ without re-normalizing). A tail consisting only of
  // such atoms has survivors but no mass; conditioning on it must yield an
  // empty distribution, not a renormalization abort.
  SnapshotWriter writer;
  writer.BeginSection("dist", 1);
  writer.WriteVarU64(2);  // Two atoms, the larger carrying zero mass.
  writer.WriteDouble(1.0);
  writer.WriteDouble(1.0);
  writer.WriteDouble(5.0);
  writer.WriteDouble(0.0);
  writer.EndSection();
  SnapshotReader reader(writer.Finish());
  ASSERT_TRUE(reader.BeginSection("dist"));
  EmpiricalDistribution d;
  d.RestoreState(reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(d.size(), 2u);

  const auto view = d.ConditionalTail(1.0);
  EXPECT_EQ(view.count, 1u);  // One surviving atom...
  EXPECT_TRUE(view.empty());  // ...but zero mass, so the view reads empty.
  EXPECT_TRUE(d.ConditionalGivenExceeds(1.0).empty());
}

TEST(EmpiricalDistributionTest, ExpectedValueOfIdentityIsMean) {
  const auto d = EmpiricalDistribution::FromSamples({2.0, 4.0, 9.0});
  EXPECT_NEAR(d.ExpectedValue([](double t) { return t; }), d.Mean(), 1e-12);
}

TEST(EmpiricalDistributionTest, ExpectedUtilityUniformExample) {
  // The paper's §2.3 example, case A: runtime ~ U(0, 10), deadline 15 min,
  // job starts after a 10-minute BE job => P(miss) = P(T > 5) = 0.5... but
  // with runtime distribution the *probability of completion by deadline*
  // when started at time s is CDF(15 - s). At s = 10 that is CDF(5) = 0.5.
  const auto d = EmpiricalDistribution::FromUniform(0.0, 10.0, 2000);
  const double deadline = 15.0;
  const double start = 10.0;
  const double p_meet =
      d.ExpectedValue([&](double t) { return start + t <= deadline ? 1.0 : 0.0; });
  EXPECT_NEAR(p_meet, 0.5, 0.01);
  // Case B: U(2.5, 7.5) — starting at 7.5 still always meets the deadline.
  const auto b = EmpiricalDistribution::FromUniform(2.5, 7.5, 2000);
  const double p_meet_b =
      b.ExpectedValue([&](double t) { return 7.5 + t <= deadline ? 1.0 : 0.0; });
  EXPECT_NEAR(p_meet_b, 1.0, 1e-9);
}

TEST(EmpiricalDistributionTest, FromHistogramPreservesMass) {
  StreamHistogram h(20);
  Rng rng(21);
  for (int i = 0; i < 10000; ++i) {
    h.Update(rng.LogNormal(3.0, 1.0));
  }
  const auto d = EmpiricalDistribution::FromHistogram(h);
  EXPECT_EQ(d.size(), h.bin_count());
  double mass = 0.0;
  for (const auto& a : d.atoms()) {
    mass += a.probability;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
  // Mean of the sketch tracks the true lognormal mean e^{3.5} within 10%.
  EXPECT_NEAR(d.Mean(), std::exp(3.5), 0.1 * std::exp(3.5));
}

TEST(EmpiricalDistributionTest, FromNormalMatchesMoments) {
  const auto d = EmpiricalDistribution::FromNormal(100.0, 20.0, 201);
  EXPECT_NEAR(d.Mean(), 100.0, 1.0);
  // ~68% of mass within 1 sigma.
  const double within = d.CdfAtMost(120.0) - d.CdfAtMost(80.0);
  EXPECT_NEAR(within, 0.68, 0.03);
}

TEST(EmpiricalDistributionTest, FromNormalTruncatesAtZero) {
  const auto d = EmpiricalDistribution::FromNormal(1.0, 10.0, 101);
  EXPECT_GE(d.MinValue(), 0.0);
}

TEST(EmpiricalDistributionTest, ZeroStddevNormalIsPoint) {
  const auto d = EmpiricalDistribution::FromNormal(5.0, 0.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
}

TEST(EmpiricalDistributionTest, ScaledMultipliesSupport) {
  const auto d = EmpiricalDistribution::FromSamples({2.0, 4.0});
  const auto s = d.Scaled(1.5);  // The non-preferred-resources 1.5x factor.
  EXPECT_DOUBLE_EQ(s.Mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.MinValue(), 3.0);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 6.0);
}

TEST(EmpiricalDistributionTest, ShiftedClampsAtZero) {
  const auto d = EmpiricalDistribution::FromSamples({1.0, 5.0});
  const auto s = d.Shifted(-3.0);
  EXPECT_DOUBLE_EQ(s.MinValue(), 0.0);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 2.0);
}

TEST(EmpiricalDistributionTest, SurvivalMonotoneNonIncreasing) {
  Rng rng(33);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(rng.LogNormal(2.0, 1.0));
  }
  const auto d = EmpiricalDistribution::FromSamples(samples);
  double prev = 1.0;
  for (double t = 0.0; t < d.MaxValue() * 1.1; t += d.MaxValue() / 100.0) {
    const double s = d.Survival(t);
    EXPECT_LE(s, prev + 1e-12);
    EXPECT_GE(s, -1e-12);
    prev = s;
  }
}

// Property sweep: Quantile is a right-inverse of CdfAtMost for atom
// distributions: CdfAtMost(Quantile(q)) >= q, and Quantile(CdfAtMost(v))
// <= next atom above v.
class QuantileCdfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileCdfPropertyTest, MutualConsistency) {
  Rng rng(static_cast<uint64_t>(300 + GetParam()));
  std::vector<double> samples;
  const int n = static_cast<int>(rng.UniformInt(1, 50));
  for (int i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(3.0, 1.0));
  }
  const auto d = EmpiricalDistribution::FromSamples(samples);
  for (int i = 0; i < 25; ++i) {
    const double q = rng.Uniform(0.0, 1.0);
    EXPECT_GE(d.CdfAtMost(d.Quantile(q)), q - 1e-9);
  }
  for (const auto& atom : d.atoms()) {
    EXPECT_LE(d.Quantile(d.CdfAtMost(atom.value)), atom.value + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAtomSets, QuantileCdfPropertyTest, ::testing::Range(0, 12));

// Property sweep: conditional renormalization (Eq. 2) holds for many random
// distributions and elapsed times.
class ConditionalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConditionalPropertyTest, Eq2HoldsEverywhere) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> samples;
  const int n = static_cast<int>(rng.UniformInt(3, 60));
  for (int i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(2.0, 1.2));
  }
  const auto d = EmpiricalDistribution::FromSamples(samples);
  const double elapsed = d.Quantile(rng.Uniform(0.0, 0.9));
  const auto cond = d.ConditionalGivenExceeds(elapsed);
  if (d.Survival(elapsed) <= 0.0) {
    EXPECT_TRUE(cond.empty());
    return;
  }
  ASSERT_FALSE(cond.empty());
  for (int i = 0; i < 20; ++i) {
    const double t = rng.Uniform(elapsed, d.MaxValue() * 1.2);
    EXPECT_NEAR(cond.Survival(t), d.Survival(t) / d.Survival(elapsed), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDistributions, ConditionalPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace threesigma
