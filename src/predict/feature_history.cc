#include "src/predict/feature_history.h"

#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

const char* ExpertKindName(ExpertKind kind) {
  switch (kind) {
    case ExpertKind::kAverage:
      return "average";
    case ExpertKind::kMedian:
      return "median";
    case ExpertKind::kRolling:
      return "rolling";
    case ExpertKind::kRecentAverage:
      return "recent-average";
  }
  return "unknown";
}

FeatureHistory::FeatureHistory(const FeatureHistoryOptions& options)
    : options_(options),
      histogram_(options.max_histogram_bins),
      rolling_(options.rolling_alpha),
      recent_(options.recent_window) {}

bool FeatureHistory::Seeded(ExpertKind kind) const {
  switch (kind) {
    case ExpertKind::kAverage:
      return average_.count() > 0;
    case ExpertKind::kMedian:
    case ExpertKind::kRecentAverage:
      return !recent_.empty();
    case ExpertKind::kRolling:
      return !rolling_.empty();
  }
  return false;
}

double FeatureHistory::Estimate(ExpertKind kind) const {
  TS_CHECK(Seeded(kind));
  switch (kind) {
    case ExpertKind::kAverage:
      return average_.mean();
    case ExpertKind::kMedian:
      return recent_.Median();
    case ExpertKind::kRolling:
      return rolling_.value();
    case ExpertKind::kRecentAverage:
      return recent_.Mean();
  }
  return 0.0;
}

void FeatureHistory::Record(double runtime) {
  TS_CHECK_GE(runtime, 0.0);
  // Score first: each expert's NMAE reflects how well it would have predicted
  // this job before seeing it.
  for (size_t k = 0; k < kNumExperts; ++k) {
    const auto kind = static_cast<ExpertKind>(k);
    if (!Seeded(kind)) {
      continue;
    }
    NmaeAccumulator& acc = nmae_[k];
    acc.abs_error += std::fabs(Estimate(kind) - runtime);
    acc.actual_sum += runtime;
    ++acc.samples;
  }
  // Then absorb the observation.
  histogram_.Update(runtime);
  average_.Add(runtime);
  rolling_.Add(runtime);
  recent_.Add(runtime);
  ++count_;
}

double FeatureHistory::NmaeScore(ExpertKind kind) const {
  const NmaeAccumulator& acc = nmae_[static_cast<size_t>(kind)];
  if (acc.samples == 0 || acc.actual_sum <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return acc.abs_error / acc.actual_sum;
}

size_t FeatureHistory::NmaeSamples(ExpertKind kind) const {
  return nmae_[static_cast<size_t>(kind)].samples;
}

template <typename Io, typename Self>
void FeatureHistory::Walk(Io& io, Self& self) {
  io.VarUint(self.count_);
  io.Nested(self.histogram_);
  io.Nested(self.average_);
  io.Nested(self.rolling_);
  io.Nested(self.recent_);
  for (auto& acc : self.nmae_) {
    io.Double(acc.abs_error);
    io.Double(acc.actual_sum);
    io.VarUint(acc.samples);
  }
}

void FeatureHistory::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }

void FeatureHistory::RestoreState(SnapshotReader& reader) {
  Walk(reader, *this);
  // The options are implied by the restored components.
  options_.max_histogram_bins = histogram_.max_bins();
  options_.rolling_alpha = rolling_.alpha();
  options_.recent_window = recent_.capacity();
}

ExpertKind FeatureHistory::BestExpert() const {
  ExpertKind best = ExpertKind::kAverage;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < kNumExperts; ++k) {
    const auto kind = static_cast<ExpertKind>(k);
    const double score = NmaeScore(kind);
    if (score < best_score) {
      best_score = score;
      best = kind;
    }
  }
  return best;
}

}  // namespace threesigma
