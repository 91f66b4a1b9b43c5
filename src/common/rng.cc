#include "src/common/rng.h"

#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

double Rng::Uniform(double lo, double hi) {
  TS_CHECK_LE(lo, hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TS_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  TS_CHECK_GT(mean, 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  std::lognormal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  TS_CHECK_GT(lo, 0.0);
  TS_CHECK_GT(hi, lo);
  TS_CHECK_GT(alpha, 0.0);
  // Inverse-CDF sampling of the bounded Pareto distribution.
  const double u = Uniform(0.0, 1.0);
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

double Rng::HyperExponential(double mean, double cv2) {
  TS_CHECK_GE(cv2, 1.0);
  // Balanced two-phase H2: with probability p use mean m1, else m2, chosen so
  // the mixture has the requested mean and squared coefficient of variation.
  // The "balanced means" construction sets p*m1 = (1-p)*m2.
  const double p = 0.5 * (1.0 + std::sqrt((cv2 - 1.0) / (cv2 + 1.0)));
  const double m1 = mean / (2.0 * p);
  const double m2 = mean / (2.0 * (1.0 - p));
  return Bernoulli(p) ? Exponential(m1) : Exponential(m2);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  TS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TS_CHECK_GE(w, 0.0);
    total += w;
  }
  TS_CHECK_GT(total, 0.0);
  double draw = Uniform(0.0, total);
  for (size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  // Mix a fresh 64-bit draw through splitmix64 so child streams do not
  // overlap the parent stream even for adjacent seeds.
  uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

std::string Rng::SerializeState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

bool Rng::DeserializeState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 restored;
  in >> restored;
  if (in.fail()) {
    return false;
  }
  engine_ = restored;
  return true;
}

void Rng::SaveState(SnapshotWriter& writer) const { writer.WriteString(SerializeState()); }

void Rng::RestoreState(SnapshotReader& reader) {
  const std::string state = reader.ReadString();
  if (reader.ok() && !DeserializeState(state)) {
    reader.Fail("corrupt RNG state in snapshot");
  }
}

}  // namespace threesigma
