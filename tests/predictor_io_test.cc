// Predictor persistence round-trip tests.

#include <sstream>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/predict/predictor_io.h"

namespace threesigma {
namespace {

ThreeSigmaPredictor MakeTrainedPredictor(int jobs) {
  ThreeSigmaPredictor p;
  Rng rng(17);
  for (int i = 0; i < jobs; ++i) {
    const int user = static_cast<int>(rng.UniformInt(0, 9));
    const int name = static_cast<int>(rng.UniformInt(0, 19));
    const JobFeatures features = {"user=u" + std::to_string(user),
                                  "jobname=j" + std::to_string(name),
                                  "user+jobname=u" + std::to_string(user) + "|j" +
                                      std::to_string(name)};
    p.RecordCompletion(features, rng.LogNormal(4.0, 1.0));
  }
  return p;
}

TEST(PredictorIoTest, RoundTripPreservesPredictions) {
  ThreeSigmaPredictor original = MakeTrainedPredictor(2000);
  std::stringstream buffer;
  SavePredictor(buffer, original);

  ThreeSigmaPredictor restored;
  ASSERT_TRUE(LoadPredictor(buffer, &restored));
  EXPECT_EQ(restored.history_count(), original.history_count());

  // Identical predictions for a spread of feature combinations.
  for (int user = 0; user < 10; ++user) {
    for (int name = 0; name < 20; name += 3) {
      const JobFeatures features = {"user=u" + std::to_string(user),
                                    "jobname=j" + std::to_string(name),
                                    "user+jobname=u" + std::to_string(user) + "|j" +
                                        std::to_string(name)};
      const RuntimePrediction a = original.Predict(features, 0.0);
      const RuntimePrediction b = restored.Predict(features, 0.0);
      EXPECT_DOUBLE_EQ(a.point_estimate, b.point_estimate);
      EXPECT_EQ(a.source, b.source);
      ASSERT_EQ(a.distribution.size(), b.distribution.size());
      for (size_t i = 0; i < a.distribution.atoms().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.distribution.atoms()[i].value, b.distribution.atoms()[i].value);
        EXPECT_DOUBLE_EQ(a.distribution.atoms()[i].probability,
                         b.distribution.atoms()[i].probability);
      }
    }
  }
}

TEST(PredictorIoTest, RoundTripPreservesStreamingState) {
  // The restored predictor must keep *learning* identically, not just
  // predicting identically: feed both the same new completions and compare.
  ThreeSigmaPredictor original = MakeTrainedPredictor(500);
  std::stringstream buffer;
  SavePredictor(buffer, original);
  ThreeSigmaPredictor restored;
  ASSERT_TRUE(LoadPredictor(buffer, &restored));

  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const JobFeatures features = {"user=u1", "jobname=j2", "user+jobname=u1|j2"};
    const double runtime = rng.LogNormal(4.0, 1.0);
    original.RecordCompletion(features, runtime);
    restored.RecordCompletion(features, runtime);
  }
  const RuntimePrediction a = original.Predict({"user=u1", "jobname=j2"}, 0.0);
  const RuntimePrediction b = restored.Predict({"user=u1", "jobname=j2"}, 0.0);
  EXPECT_DOUBLE_EQ(a.point_estimate, b.point_estimate);
  EXPECT_EQ(a.source, b.source);
}

TEST(PredictorIoTest, EmptyPredictorRoundTrips) {
  ThreeSigmaPredictor original;
  std::stringstream buffer;
  SavePredictor(buffer, original);
  ThreeSigmaPredictor restored = MakeTrainedPredictor(10);  // Pre-dirty it.
  ASSERT_TRUE(LoadPredictor(buffer, &restored));
  EXPECT_EQ(restored.history_count(), 0u);
}

TEST(PredictorIoTest, EscapedFeatureKeys) {
  ThreeSigmaPredictor original;
  original.RecordCompletion({"jobname=weird name with spaces", "user=a%b"}, 100.0);
  std::stringstream buffer;
  SavePredictor(buffer, original);
  ThreeSigmaPredictor restored;
  ASSERT_TRUE(LoadPredictor(buffer, &restored));
  ASSERT_NE(restored.history("jobname=weird name with spaces"), nullptr);
  ASSERT_NE(restored.history("user=a%b"), nullptr);
}

TEST(PredictorIoTest, RejectsGarbage) {
  ThreeSigmaPredictor p;
  std::istringstream bad1("not-a-predictor v1\n");
  EXPECT_FALSE(LoadPredictor(bad1, &p));
  std::istringstream bad2("threesigma-predictor v2\n");
  EXPECT_FALSE(LoadPredictor(bad2, &p));
  std::istringstream bad3("threesigma-predictor v1\nfeatures 1\nfeature k 5\nhist oops");
  EXPECT_FALSE(LoadPredictor(bad3, &p));
  // A well-formed file in the retired v1 text format is rejected too.
  std::istringstream v1("threesigma-predictor v1\nfeatures 0\n");
  EXPECT_FALSE(LoadPredictor(v1, &p));
}

TEST(PredictorIoTest, CurrentFormatIsSnapshotContainer) {
  ThreeSigmaPredictor original = MakeTrainedPredictor(10);
  std::stringstream buffer;
  SavePredictor(buffer, original);
  EXPECT_EQ(buffer.str().substr(0, 8), "3SGSNAP1");
}

TEST(PredictorIoTest, RejectsTruncatedStream) {
  ThreeSigmaPredictor original = MakeTrainedPredictor(100);
  std::stringstream buffer;
  SavePredictor(buffer, original);
  const std::string full = buffer.str();
  std::istringstream truncated(full.substr(0, full.size() / 2));
  ThreeSigmaPredictor restored;
  EXPECT_FALSE(LoadPredictor(truncated, &restored));
}

}  // namespace
}  // namespace threesigma
