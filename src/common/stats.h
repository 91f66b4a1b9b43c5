// Streaming and batch statistics helpers.
//
// RunningStats is the Welford single-pass accumulator used by the predictor's
// streaming experts (§4.1 of the paper requires constant memory per
// feature-value). The batch helpers back trace analysis (Fig. 2: runtime CDFs,
// per-group coefficient of variation, estimate-error histograms).

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

// Welford's online algorithm: mean/variance in O(1) memory.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  // Coefficient of variation: stddev / mean; 0 if the mean is 0.
  double cov() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  // Snapshot codec hooks: raw payload, composable into a parent section.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exponentially weighted moving average, the paper's "rolling" estimator
// (alpha = 0.6 by default per §4.1).
class EwmaEstimator {
 public:
  explicit EwmaEstimator(double alpha = 0.6) : alpha_(alpha) {}

  void Add(double x);
  bool empty() const { return !seeded_; }
  double value() const { return value_; }
  double alpha() const { return alpha_; }

  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

// Fixed-capacity window over the most recent samples; supports the paper's
// "average of X recent runtimes" expert and its recent-median proxy.
class RecentWindow {
 public:
  explicit RecentWindow(size_t capacity);

  void Add(double x);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Mean() const;
  double Median() const;

  size_t capacity() const { return capacity_; }

  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  size_t capacity_;
  size_t next_ = 0;
  std::vector<double> values_;
};

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double Quantile(std::vector<double> values, double q);

// Batch mean of a sample; 0 for an empty sample.
double Mean(const std::vector<double>& values);

// Normalized mean absolute error of estimates vs. actuals:
//   sum |est - act| / sum act
// This is the accuracy score 3σPredict uses to rank experts.
double Nmae(const std::vector<double>& estimates, const std::vector<double>& actuals);

// Histogram of estimate-error percentages exactly as Fig. 2(d) buckets them:
// one bucket per decile of error in [-100, +95] (each bucket spans ±5% of the
// nearest decile) plus a final "tail" bucket for errors > 95%.
// error% = (estimate - actual) / actual * 100.
struct EstimateErrorHistogram {
  // Bucket centers: -100, -90, ..., 90 then the tail bucket.
  std::vector<double> centers;
  // Fraction of jobs per bucket (sums to 1 if any sample present).
  std::vector<double> fractions;
};
EstimateErrorHistogram BuildEstimateErrorHistogram(const std::vector<double>& estimates,
                                                   const std::vector<double>& actuals);

}  // namespace threesigma

#endif  // SRC_COMMON_STATS_H_
