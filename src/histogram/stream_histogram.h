// Streaming histogram after Ben-Haim & Tom-Tov (JMLR 2010), the sketch the
// paper cites ([1]) for maintaining approximate runtime histograms in constant
// memory per feature-value (§4.1, "maximum of 80 bins").
//
// The histogram is a set of (centroid, count) bins kept sorted by centroid.
// Each update inserts a unit bin and, when the bin budget is exceeded, merges
// the two adjacent bins with the smallest centroid gap. Two histograms can be
// merged with the same rule, and approximate ranks/quantiles are computed by
// trapezoidal interpolation between centroids.

#ifndef SRC_HISTOGRAM_STREAM_HISTOGRAM_H_
#define SRC_HISTOGRAM_STREAM_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

class StreamHistogram {
 public:
  struct Bin {
    double centroid;
    double count;
  };

  // `max_bins` bounds memory; the paper uses 80.
  explicit StreamHistogram(size_t max_bins = 80);

  // Inserts one observation.
  void Update(double value);
  // Merges another histogram into this one (same bin budget applies).
  void Merge(const StreamHistogram& other);

  // Approximate number of observations <= value (the "sum" procedure).
  double EstimateCountAtMost(double value) const;
  // Approximate q-quantile, q in [0, 1].
  double Quantile(double q) const;

  double total_count() const { return total_count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  bool empty() const { return bins_.empty(); }
  size_t bin_count() const { return bins_.size(); }
  size_t max_bins() const { return max_bins_; }
  const std::vector<Bin>& bins() const { return bins_; }

  // Snapshot codec hooks: raw payload, composable into a parent section.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  // Inserts a pre-weighted bin keeping the centroid order, then shrinks back
  // to the bin budget.
  void InsertBin(double centroid, double count);
  void ShrinkToBudget();
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  size_t max_bins_;
  std::vector<Bin> bins_;  // Sorted by centroid, strictly increasing.
  double total_count_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace threesigma

#endif  // SRC_HISTOGRAM_STREAM_HISTOGRAM_H_
