// Runtime predictors (Fig. 4's 3σPredict component and its stand-ins).
//
// ThreeSigmaPredictor is the paper's 3σPredict: per-feature runtime histories
// with four point estimators each, NMAE-ranked; the winning expert supplies
// both the runtime *distribution* (its feature's histogram) for 3σSched and
// the *point estimate* for PointRealEst (which is exactly the JVuPredict
// scheme the paper measures in §2.1).
//
// PerfectPredictor is the PointPerfEst oracle: the true runtime as a point
// mass. SyntheticPredictor reproduces the Fig. 9 study: hand-shaped normal
// distributions N(runtime·(1+shift), runtime·CoV) around the true runtime.

#ifndef SRC_PREDICT_PREDICTOR_H_
#define SRC_PREDICT_PREDICTOR_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/predict/feature_history.h"
#include "src/predict/prediction.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

class RuntimePredictor {
 public:
  virtual ~RuntimePredictor() = default;

  // Predicts the runtime distribution for a job with the given features.
  // `true_runtime` is the simulator's ground truth; only oracle/synthetic
  // predictors may read it (history-based predictors must ignore it).
  virtual RuntimePrediction Predict(const JobFeatures& features, double true_runtime) = 0;

  // Feeds a completed job's runtime back into the history (step 4 of Fig. 4).
  virtual void RecordCompletion(const JobFeatures& features, double runtime) = 0;

  // Snapshot codec hooks: raw payload within the caller's section, prefixed
  // by a kind tag so a mismatched predictor configuration fails the reader
  // on restore rather than silently misreading the payload. Wrappers recurse to
  // their inner predictor. The default is for stateless predictors.
  virtual void SaveState(SnapshotWriter& writer) const;
  virtual void RestoreState(SnapshotReader& reader);
};

struct ThreeSigmaPredictorOptions {
  FeatureHistoryOptions history;
  // Cold-start point estimate when no feature has any history.
  double default_runtime = 300.0;
  // Minimum completions a feature needs before its distribution is eligible.
  size_t min_history = 1;
};

class ThreeSigmaPredictor : public RuntimePredictor {
 public:
  explicit ThreeSigmaPredictor(const ThreeSigmaPredictorOptions& options = {});

  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;

  // Number of tracked feature-value histories (memory diagnostic; §4.1
  // promises constant memory per feature-value).
  size_t history_count() const { return histories_.size(); }
  // Read access for tests/examples; nullptr when untracked.
  const FeatureHistory* history(const std::string& feature) const;

  // Serializes every feature history (sorted by key for determinism).
  // RestoreState replaces all histories wholesale, so pre-training done
  // before a resume cannot double-count.
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  ThreeSigmaPredictorOptions options_;
  std::unordered_map<std::string, FeatureHistory> histories_;
};

// The PointPerfEst oracle: exact runtime, zero variance.
class PerfectPredictor : public RuntimePredictor {
 public:
  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;
};

// Freezes each job population's history at `cap` samples: completions for a
// (user|jobname) pair beyond the cap are dropped. Implements the Fig. 11
// E2E-SAMPLE-n study, which controls "the number of samples comprising the
// distributions used by 3Sigma".
class SampleCapPredictor : public RuntimePredictor {
 public:
  // `inner` must outlive this predictor.
  SampleCapPredictor(RuntimePredictor* inner, int cap);

  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;

  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  RuntimePredictor* inner_;
  int cap_;
  std::unordered_map<std::string, int> counts_;
};

// The "stochastic scheduler" baseline of §2.2 ([22], Schopf & Berman):
// point estimates padded by `k` standard deviations of the predicted
// distribution. Wraps a history-based predictor; the padded point is also
// returned as the distribution (a point mass), so schedulers consuming it
// behave like conservative point schedulers.
class PaddedPointPredictor : public RuntimePredictor {
 public:
  // `inner` must outlive this predictor.
  PaddedPointPredictor(RuntimePredictor* inner, double padding_stddevs);

  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;

  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  RuntimePredictor* inner_;
  double padding_stddevs_;
};

// Fig. 9's synthetic distributions: ~N(µ = runtime·(1 + shift), σ =
// runtime·cov), where the per-job shift is itself drawn ~N(shift, 0.1). With
// cov == 0 this produces the "point" curve of Fig. 9.
class SyntheticPredictor : public RuntimePredictor {
 public:
  SyntheticPredictor(double shift, double cov, uint64_t seed);

  RuntimePrediction Predict(const JobFeatures& features, double true_runtime) override;
  void RecordCompletion(const JobFeatures& features, double runtime) override;

  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  double shift_;
  double cov_;
  Rng rng_;
};

}  // namespace threesigma

#endif  // SRC_PREDICT_PREDICTOR_H_
