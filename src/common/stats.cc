#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cov() const {
  const double m = mean();
  if (m == 0.0) {
    return 0.0;
  }
  return stddev() / m;
}

template <typename Io, typename Self>
void RunningStats::Walk(Io& io, Self& self) {
  io.VarUint(self.count_);
  io.Double(self.mean_);
  io.Double(self.m2_);
  io.Double(self.min_);
  io.Double(self.max_);
  io.Double(self.sum_);
}

void RunningStats::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void RunningStats::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

template <typename Io, typename Self>
void EwmaEstimator::Walk(Io& io, Self& self) {
  io.Double(self.alpha_);
  io.Bool(self.seeded_);
  io.Double(self.value_);
}

void EwmaEstimator::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void EwmaEstimator::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

template <typename Io, typename Self>
void RecentWindow::Walk(Io& io, Self& self) {
  io.VarUint(self.capacity_);
  io.VarUint(self.next_);
  io.Seq(self.values_, [&](auto& v) { io.Double(v); }, sizeof(double));
}

void RecentWindow::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }

void RecentWindow::RestoreState(SnapshotReader& reader) {
  Walk(reader, *this);
  // Add() indexes values_[next_] modulo capacity_.
  if (capacity_ == 0 || next_ >= capacity_ || values_.size() > capacity_) {
    reader.Fail("recent window cursor out of range");
  }
}

void EwmaEstimator::Add(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

RecentWindow::RecentWindow(size_t capacity) : capacity_(capacity) {
  TS_CHECK_GT(capacity, 0u);
  values_.reserve(capacity);
}

void RecentWindow::Add(double x) {
  if (values_.size() < capacity_) {
    values_.push_back(x);
  } else {
    values_[next_] = x;
  }
  next_ = (next_ + 1) % capacity_;
}

double RecentWindow::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (double v : values_) {
    total += v;
  }
  return total / static_cast<double>(values_.size());
}

double RecentWindow::Median() const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (n % 2 == 1) {
    return sorted[n / 2];
  }
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  TS_CHECK(!values.empty());
  TS_CHECK_GE(q, 0.0);
  TS_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    return values[0];
  }
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

double Nmae(const std::vector<double>& estimates, const std::vector<double>& actuals) {
  TS_CHECK_EQ(estimates.size(), actuals.size());
  double abs_err = 0.0;
  double total_actual = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    abs_err += std::fabs(estimates[i] - actuals[i]);
    total_actual += actuals[i];
  }
  if (total_actual == 0.0) {
    return 0.0;
  }
  return abs_err / total_actual;
}

EstimateErrorHistogram BuildEstimateErrorHistogram(const std::vector<double>& estimates,
                                                   const std::vector<double>& actuals) {
  TS_CHECK_EQ(estimates.size(), actuals.size());
  EstimateErrorHistogram hist;
  // Decile centers -100 .. +90, then the tail (> 95%).
  for (int c = -100; c <= 90; c += 10) {
    hist.centers.push_back(static_cast<double>(c));
  }
  hist.centers.push_back(100.0);  // "tail" bucket
  hist.fractions.assign(hist.centers.size(), 0.0);

  size_t counted = 0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (actuals[i] <= 0.0) {
      continue;
    }
    const double err = (estimates[i] - actuals[i]) / actuals[i] * 100.0;
    size_t bucket;
    if (err > 95.0) {
      bucket = hist.centers.size() - 1;
    } else {
      // Nearest decile, clamped to [-100, 90].
      const double decile = std::round(err / 10.0) * 10.0;
      const double clamped = std::clamp(decile, -100.0, 90.0);
      bucket = static_cast<size_t>((clamped + 100.0) / 10.0);
    }
    hist.fractions[bucket] += 1.0;
    ++counted;
  }
  if (counted > 0) {
    for (double& f : hist.fractions) {
      f /= static_cast<double>(counted);
    }
  }
  return hist;
}

}  // namespace threesigma
