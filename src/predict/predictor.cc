#include "src/predict/predictor.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

// Every predictor's payload starts with its kind tag; restoring through a
// differently-configured predictor graph fails the reader, not silent drift.
void RuntimePredictor::SaveState(SnapshotWriter& writer) const { writer.Tag("stateless"); }
void RuntimePredictor::RestoreState(SnapshotReader& reader) { reader.Tag("stateless"); }

ThreeSigmaPredictor::ThreeSigmaPredictor(const ThreeSigmaPredictorOptions& options)
    : options_(options) {}

const FeatureHistory* ThreeSigmaPredictor::history(const std::string& feature) const {
  const auto it = histories_.find(feature);
  return it == histories_.end() ? nullptr : &it->second;
}

RuntimePrediction ThreeSigmaPredictor::Predict(const JobFeatures& features,
                                               double /*true_runtime*/) {
  // Predictions happen on the driver thread (arrival and restart handling),
  // so a phase span is safe here; it nests inside kSimEvents event spans.
  TS_OBS_SPAN("predict.lookup", obs::Phase::kPredict);
  // Rank every (feature-value, estimator) expert by NMAE and pick the best
  // (§4.1). The winning feature's histogram becomes the distribution.
  const FeatureHistory* best_history = nullptr;
  std::string best_feature;
  ExpertKind best_expert = ExpertKind::kAverage;
  double best_score = std::numeric_limits<double>::infinity();
  // Fallback when no expert was ever NMAE-scored (first-ever prediction for
  // these features): any feature with history at all, preferring more data.
  const FeatureHistory* fallback = nullptr;
  std::string fallback_feature;

  for (const std::string& feature : features) {
    const auto it = histories_.find(feature);
    if (it == histories_.end() || it->second.count() < options_.min_history) {
      continue;
    }
    const FeatureHistory& hist = it->second;
    if (fallback == nullptr || hist.count() > fallback->count()) {
      fallback = &hist;
      fallback_feature = feature;
    }
    for (size_t k = 0; k < kNumExperts; ++k) {
      const auto kind = static_cast<ExpertKind>(k);
      const double score = hist.NmaeScore(kind);
      if (score < best_score) {
        best_score = score;
        best_history = &hist;
        best_feature = feature;
        best_expert = kind;
      }
    }
  }

  if (best_history == nullptr && fallback != nullptr) {
    best_history = fallback;
    best_feature = fallback_feature;
    best_expert = fallback->BestExpert();
  }

  struct PredictCounters {
    obs::Counter* predictions;
    obs::Counter* cold_starts;
  };
  static const PredictCounters* const counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto* c = new PredictCounters();
    c->predictions = reg.GetCounter("predict.predictions");
    c->cold_starts = reg.GetCounter("predict.cold_starts");
    return c;
  }();
  counters->predictions->Increment();

  RuntimePrediction result;
  if (best_history == nullptr) {
    // Cold start: no relevant history anywhere.
    counters->cold_starts->Increment();
    result.distribution = EmpiricalDistribution::Point(options_.default_runtime);
    result.point_estimate = options_.default_runtime;
    result.source = "cold-start";
    result.from_history = false;
    return result;
  }
  result.distribution = EmpiricalDistribution::FromHistogram(best_history->histogram());
  result.point_estimate = best_history->Seeded(best_expert)
                              ? best_history->Estimate(best_expert)
                              : result.distribution.Mean();
  result.source = best_feature + ":" + ExpertKindName(best_expert);
  result.from_history = true;
  return result;
}

void ThreeSigmaPredictor::RecordCompletion(const JobFeatures& features, double runtime) {
  TS_CHECK_GE(runtime, 0.0);
  TS_OBS_SPAN("predict.record", obs::Phase::kPredict);
  static obs::Counter* const recordings =
      obs::MetricsRegistry::Global().GetCounter("predict.recordings");
  recordings->Increment();
  for (const std::string& feature : features) {
    auto [it, inserted] = histories_.try_emplace(feature, options_.history);
    it->second.Record(runtime);
  }
}

template <typename Io, typename Self>
void ThreeSigmaPredictor::Walk(Io& io, Self& self) {
  io.Tag("3sigma");
  io.Map(self.histories_, [&](auto& key, auto& history) {
    io.String(key);
    io.Nested(history);
  });
}

void ThreeSigmaPredictor::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void ThreeSigmaPredictor::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

RuntimePrediction PerfectPredictor::Predict(const JobFeatures& /*features*/,
                                            double true_runtime) {
  RuntimePrediction result;
  result.distribution = EmpiricalDistribution::Point(true_runtime);
  result.point_estimate = true_runtime;
  result.source = "oracle";
  result.from_history = true;
  return result;
}

void PerfectPredictor::RecordCompletion(const JobFeatures& /*features*/, double /*runtime*/) {}

SampleCapPredictor::SampleCapPredictor(RuntimePredictor* inner, int cap)
    : inner_(inner), cap_(cap) {
  TS_CHECK(inner != nullptr);
  TS_CHECK_GT(cap, 0);
}

RuntimePrediction SampleCapPredictor::Predict(const JobFeatures& features,
                                              double true_runtime) {
  return inner_->Predict(features, true_runtime);
}

void SampleCapPredictor::RecordCompletion(const JobFeatures& features, double runtime) {
  // Key by the most specific feature (the combined user+jobname when
  // present, else the whole feature list).
  std::string key;
  for (const std::string& f : features) {
    if (f.rfind("user+jobname=", 0) == 0) {
      key = f;
      break;
    }
  }
  if (key.empty()) {
    for (const std::string& f : features) {
      key += f;
      key += ';';
    }
  }
  int& count = counts_[key];
  if (count >= cap_) {
    return;
  }
  ++count;
  inner_->RecordCompletion(features, runtime);
}

template <typename Io, typename Self>
void SampleCapPredictor::Walk(Io& io, Self& self) {
  io.Tag("sample-cap");
  io.VarInt(self.cap_);
  io.Map(self.counts_, [&](auto& key, auto& count) {
    io.String(key);
    io.VarInt(count);
  });
  io.Nested(*self.inner_);
}

void SampleCapPredictor::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void SampleCapPredictor::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

PaddedPointPredictor::PaddedPointPredictor(RuntimePredictor* inner, double padding_stddevs)
    : inner_(inner), padding_stddevs_(padding_stddevs) {
  TS_CHECK(inner != nullptr);
  TS_CHECK_GE(padding_stddevs, 0.0);
}

RuntimePrediction PaddedPointPredictor::Predict(const JobFeatures& features,
                                                double true_runtime) {
  RuntimePrediction pred = inner_->Predict(features, true_runtime);
  const double padded =
      pred.point_estimate + padding_stddevs_ * pred.distribution.StdDev();
  pred.point_estimate = padded;
  pred.distribution = EmpiricalDistribution::Point(padded);
  pred.source += "+pad" + std::to_string(padding_stddevs_);
  return pred;
}

void PaddedPointPredictor::RecordCompletion(const JobFeatures& features, double runtime) {
  inner_->RecordCompletion(features, runtime);
}

template <typename Io, typename Self>
void PaddedPointPredictor::Walk(Io& io, Self& self) {
  io.Tag("padded-point");
  io.Double(self.padding_stddevs_);
  io.Nested(*self.inner_);
}

void PaddedPointPredictor::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void PaddedPointPredictor::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

SyntheticPredictor::SyntheticPredictor(double shift, double cov, uint64_t seed)
    : shift_(shift), cov_(cov), rng_(seed) {}

RuntimePrediction SyntheticPredictor::Predict(const JobFeatures& /*features*/,
                                              double true_runtime) {
  // Per Fig. 9's caption: the distribution is N(µ = runtime·(1 + shift),
  // σ = runtime·CoV) where the realized shift is drawn ~N(target, 0.1).
  const double drawn_shift = rng_.Normal(shift_, 0.1);
  const double mean = true_runtime * (1.0 + drawn_shift);
  RuntimePrediction result;
  if (cov_ <= 0.0) {
    result.distribution = EmpiricalDistribution::Point(std::max(mean, 0.0));
  } else {
    result.distribution = EmpiricalDistribution::FromNormal(mean, true_runtime * cov_);
  }
  result.point_estimate = std::max(mean, 0.0);
  result.source = "synthetic";
  result.from_history = true;
  return result;
}

void SyntheticPredictor::RecordCompletion(const JobFeatures& /*features*/, double /*runtime*/) {}

template <typename Io, typename Self>
void SyntheticPredictor::Walk(Io& io, Self& self) {
  io.Tag("synthetic");
  io.Double(self.shift_);
  io.Double(self.cov_);
  io.Nested(self.rng_);
}

void SyntheticPredictor::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void SyntheticPredictor::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

}  // namespace threesigma
