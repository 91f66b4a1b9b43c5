#include "src/histogram/stream_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

StreamHistogram::StreamHistogram(size_t max_bins) : max_bins_(max_bins) {
  TS_CHECK_GE(max_bins, 2u);
  bins_.reserve(max_bins + 1);
}

void StreamHistogram::Update(double value) {
  if (bins_.empty()) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  InsertBin(value, 1.0);
  total_count_ += 1.0;
}

void StreamHistogram::Merge(const StreamHistogram& other) {
  if (other.empty()) {
    return;
  }
  if (bins_.empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (const Bin& b : other.bins_) {
    InsertBin(b.centroid, b.count);
  }
  total_count_ += other.total_count_;
}

void StreamHistogram::InsertBin(double centroid, double count) {
  auto it = std::lower_bound(bins_.begin(), bins_.end(), centroid,
                             [](const Bin& b, double v) { return b.centroid < v; });
  if (it != bins_.end() && it->centroid == centroid) {
    it->count += count;
  } else {
    bins_.insert(it, Bin{centroid, count});
    ShrinkToBudget();
  }
}

void StreamHistogram::ShrinkToBudget() {
  while (bins_.size() > max_bins_) {
    // Merge the adjacent pair with the smallest centroid gap.
    size_t best = 0;
    double best_gap = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < bins_.size(); ++i) {
      const double gap = bins_[i + 1].centroid - bins_[i].centroid;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    Bin& lo = bins_[best];
    const Bin& hi = bins_[best + 1];
    const double merged_count = lo.count + hi.count;
    lo.centroid = (lo.centroid * lo.count + hi.centroid * hi.count) / merged_count;
    lo.count = merged_count;
    bins_.erase(bins_.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
}

double StreamHistogram::EstimateCountAtMost(double value) const {
  if (bins_.empty()) {
    return 0.0;
  }
  if (value < bins_.front().centroid) {
    // Below the first centroid: attribute none of the first bin. (The true
    // minimum may be below the centroid, but the sketch does not retain it.)
    return value < min_ ? 0.0 : bins_.front().count * 0.5 *
                                    (value - min_) / std::max(bins_.front().centroid - min_, 1e-12);
  }
  if (value >= bins_.back().centroid) {
    if (value >= max_) {
      return total_count_;
    }
    // Interpolate the last half-bin between its centroid and the max.
    const double span = std::max(max_ - bins_.back().centroid, 1e-12);
    const double frac = (value - bins_.back().centroid) / span;
    return total_count_ - bins_.back().count * 0.5 * (1.0 - frac);
  }
  // Ben-Haim & Tom-Tov "sum" procedure: half of every bin strictly below,
  // plus the trapezoid between the straddling centroids.
  double below = 0.0;
  size_t i = 0;
  while (i + 1 < bins_.size() && bins_[i + 1].centroid <= value) {
    below += bins_[i].count;
    ++i;
  }
  const Bin& bi = bins_[i];
  const Bin& bj = bins_[i + 1];
  const double span = std::max(bj.centroid - bi.centroid, 1e-12);
  const double frac = (value - bi.centroid) / span;
  // Interpolated count at `value` inside the trapezoid [bi, bj].
  const double mb = bi.count + (bj.count - bi.count) * frac;
  const double trapezoid = (bi.count + mb) * frac / 2.0;
  // All bins before bi contribute fully; bi contributes half of itself.
  double total_before = 0.0;
  for (size_t k = 0; k < i; ++k) {
    total_before += bins_[k].count;
  }
  return total_before + bi.count / 2.0 + trapezoid;
}

double StreamHistogram::Quantile(double q) const {
  TS_CHECK(!bins_.empty());
  TS_CHECK_GE(q, 0.0);
  TS_CHECK_LE(q, 1.0);
  const double target = q * total_count_;
  // Binary search the value whose estimated rank equals target.
  double lo = min_;
  double hi = max_;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (EstimateCountAtMost(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

template <typename Io, typename Self>
void StreamHistogram::Walk(Io& io, Self& self) {
  io.VarUint(self.max_bins_);
  io.Double(self.total_count_);
  io.Double(self.min_);
  io.Double(self.max_);
  io.Seq(self.bins_, [&](auto& b) {
    io.Double(b.centroid);
    io.Double(b.count);
  }, 2 * sizeof(double));
}

void StreamHistogram::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }

void StreamHistogram::RestoreState(SnapshotReader& reader) {
  Walk(reader, *this);
  // The constructor's bin budget, and the positive finite bins that
  // EmpiricalDistribution::FromHistogram turns into atoms.
  bool bins_ok = max_bins_ >= 2;
  for (const Bin& b : bins_) {
    bins_ok = bins_ok && std::isfinite(b.centroid) && std::isfinite(b.count) && b.count > 0.0;
  }
  if (!bins_ok) {
    reader.Fail("histogram bins out of range");
  }
}

}  // namespace threesigma
