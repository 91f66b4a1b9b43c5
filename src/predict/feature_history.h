// Per-feature-value runtime history: the paper's "expert" machinery (§4.1).
//
// Every feature value (e.g. user=alice) keeps
//   - an approximate runtime histogram (streaming, ≤80 bins),
//   - four point estimators: (a) average, (b) median, (c) rolling
//     exponentially-weighted average with α = 0.6, (d) average of the X most
//     recent runtimes,
//   - a streaming NMAE score per estimator, accumulated by scoring each
//     estimator against every new completion *before* folding it in.
// Memory is constant per feature-value: the average and NMAE accumulators are
// streaming, and the median is computed over a bounded recent window (the
// paper's "recent values as a proxy for the actual median").

#ifndef SRC_PREDICT_FEATURE_HISTORY_H_
#define SRC_PREDICT_FEATURE_HISTORY_H_

#include <array>
#include <cstddef>

#include "src/common/stats.h"
#include "src/histogram/stream_histogram.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

enum class ExpertKind {
  kAverage = 0,
  kMedian = 1,
  kRolling = 2,
  kRecentAverage = 3,
};

inline constexpr size_t kNumExperts = 4;

const char* ExpertKindName(ExpertKind kind);

struct FeatureHistoryOptions {
  size_t max_histogram_bins = 80;
  double rolling_alpha = 0.6;
  // X in "average of X recent job runtimes"; also the median-proxy window.
  size_t recent_window = 20;
};

class FeatureHistory {
 public:
  explicit FeatureHistory(const FeatureHistoryOptions& options = {});

  // Scores every seeded expert against `runtime`, then absorbs it.
  void Record(double runtime);

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Current point estimate of the given expert; only valid once seeded.
  double Estimate(ExpertKind kind) const;
  bool Seeded(ExpertKind kind) const;

  // Streaming NMAE of the expert's past estimates; experts that have never
  // been scored return +infinity so they lose every comparison.
  double NmaeScore(ExpertKind kind) const;
  // Number of (estimate, actual) pairs folded into the NMAE score.
  size_t NmaeSamples(ExpertKind kind) const;

  // The expert with the lowest NMAE (ties break toward the smaller enum, the
  // paper does not specify); falls back to kAverage when none were scored yet.
  ExpertKind BestExpert() const;

  const StreamHistogram& histogram() const { return histogram_; }

  // Snapshot codec hooks: exact round-trip of all streaming state,
  // composable into a parent section.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  struct NmaeAccumulator {
    double abs_error = 0.0;
    double actual_sum = 0.0;
    size_t samples = 0;
  };

  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  FeatureHistoryOptions options_;
  size_t count_ = 0;
  StreamHistogram histogram_;
  RunningStats average_;
  EwmaEstimator rolling_;
  RecentWindow recent_;
  std::array<NmaeAccumulator, kNumExperts> nmae_;
};

}  // namespace threesigma

#endif  // SRC_PREDICT_FEATURE_HISTORY_H_
