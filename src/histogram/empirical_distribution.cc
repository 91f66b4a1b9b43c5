#include "src/histogram/empirical_distribution.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

EmpiricalDistribution EmpiricalDistribution::FromAtoms(std::vector<Atom> atoms) {
  std::sort(atoms.begin(), atoms.end(),
            [](const Atom& a, const Atom& b) { return a.value < b.value; });
  // Merge duplicates and normalize mass to 1.
  std::vector<Atom> merged;
  merged.reserve(atoms.size());
  double total = 0.0;
  for (const Atom& a : atoms) {
    TS_CHECK_GE(a.probability, 0.0);
    if (a.probability == 0.0) {
      continue;
    }
    total += a.probability;
    if (!merged.empty() && merged.back().value == a.value) {
      merged.back().probability += a.probability;
    } else {
      merged.push_back(a);
    }
  }
  TS_CHECK_GT(total, 0.0);
  for (Atom& a : merged) {
    a.probability /= total;
  }
  EmpiricalDistribution dist;
  dist.atoms_ = std::move(merged);
  return dist;
}

EmpiricalDistribution EmpiricalDistribution::Point(double value) {
  return FromAtoms({Atom{value, 1.0}});
}

EmpiricalDistribution EmpiricalDistribution::FromSamples(std::vector<double> samples) {
  TS_CHECK(!samples.empty());
  std::vector<Atom> atoms;
  atoms.reserve(samples.size());
  for (double s : samples) {
    atoms.push_back(Atom{s, 1.0});
  }
  return FromAtoms(std::move(atoms));
}

EmpiricalDistribution EmpiricalDistribution::FromHistogram(const StreamHistogram& hist) {
  TS_CHECK(!hist.empty());
  std::vector<Atom> atoms;
  atoms.reserve(hist.bin_count());
  for (const StreamHistogram::Bin& b : hist.bins()) {
    atoms.push_back(Atom{b.centroid, b.count});
  }
  return FromAtoms(std::move(atoms));
}

EmpiricalDistribution EmpiricalDistribution::FromNormal(double mean, double stddev,
                                                        size_t atoms) {
  TS_CHECK_GE(atoms, 1u);
  if (stddev <= 0.0) {
    return Point(std::max(mean, 0.0));
  }
  // Equal-probability discretization: atom i at the (i + 0.5)/n quantile of
  // N(mean, stddev), truncated below zero. This preserves the shape (and the
  // tails matter: Fig. 9 shows wide distributions hedge large shifts).
  std::vector<Atom> out;
  out.reserve(atoms);
  for (size_t i = 0; i < atoms; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(atoms);
    // Inverse normal CDF via the Acklam rational approximation.
    const double a1 = -39.69683028665376, a2 = 220.9460984245205, a3 = -275.9285104469687;
    const double a4 = 138.3577518672690, a5 = -30.66479806614716, a6 = 2.506628277459239;
    const double b1 = -54.47609879822406, b2 = 161.5858368580409, b3 = -155.6989798598866;
    const double b4 = 66.80131188771972, b5 = -13.28068155288572;
    const double c1 = -0.007784894002430293, c2 = -0.3223964580411365, c3 = -2.400758277161838;
    const double c4 = -2.549732539343734, c5 = 4.374664141464968, c6 = 2.938163982698783;
    const double d1 = 0.007784695709041462, d2 = 0.3224671290700398, d3 = 2.445134137142996;
    const double d4 = 3.754408661907416;
    const double plow = 0.02425;
    double z;
    if (q < plow) {
      const double r = std::sqrt(-2.0 * std::log(q));
      z = (((((c1 * r + c2) * r + c3) * r + c4) * r + c5) * r + c6) /
          ((((d1 * r + d2) * r + d3) * r + d4) * r + 1.0);
    } else if (q <= 1.0 - plow) {
      const double r = q - 0.5;
      const double s = r * r;
      z = (((((a1 * s + a2) * s + a3) * s + a4) * s + a5) * s + a6) * r /
          (((((b1 * s + b2) * s + b3) * s + b4) * s + b5) * s + 1.0);
    } else {
      const double r = std::sqrt(-2.0 * std::log(1.0 - q));
      z = -(((((c1 * r + c2) * r + c3) * r + c4) * r + c5) * r + c6) /
          ((((d1 * r + d2) * r + d3) * r + d4) * r + 1.0);
    }
    const double value = std::max(mean + stddev * z, 0.0);
    out.push_back(Atom{value, 1.0});
  }
  return FromAtoms(std::move(out));
}

EmpiricalDistribution EmpiricalDistribution::FromUniform(double lo, double hi, size_t atoms) {
  TS_CHECK_LE(lo, hi);
  TS_CHECK_GE(atoms, 1u);
  if (lo == hi) {
    return Point(lo);
  }
  std::vector<Atom> out;
  out.reserve(atoms);
  for (size_t i = 0; i < atoms; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(atoms);
    out.push_back(Atom{lo + q * (hi - lo), 1.0});
  }
  return FromAtoms(std::move(out));
}

double EmpiricalDistribution::CdfAtMost(double t) const {
  double mass = 0.0;
  for (const Atom& a : atoms_) {
    if (a.value > t) {
      break;
    }
    mass += a.probability;
  }
  return mass;
}

double EmpiricalDistribution::Survival(double t) const { return 1.0 - CdfAtMost(t); }

double EmpiricalDistribution::Mean() const {
  double m = 0.0;
  for (const Atom& a : atoms_) {
    m += a.value * a.probability;
  }
  return m;
}

double EmpiricalDistribution::StdDev() const {
  const double mean = Mean();
  double var = 0.0;
  for (const Atom& a : atoms_) {
    var += (a.value - mean) * (a.value - mean) * a.probability;
  }
  return std::sqrt(std::max(var, 0.0));
}

double EmpiricalDistribution::Quantile(double q) const {
  TS_CHECK(!atoms_.empty());
  // Tolerate floating-point overshoot from CdfAtMost (probabilities sum to
  // 1 ± ulp) while still rejecting genuinely out-of-range inputs.
  TS_CHECK_GE(q, -1e-9);
  TS_CHECK_LE(q, 1.0 + 1e-9);
  q = std::clamp(q, 0.0, 1.0);
  double mass = 0.0;
  for (const Atom& a : atoms_) {
    mass += a.probability;
    if (mass >= q - 1e-12) {
      return a.value;
    }
  }
  return atoms_.back().value;
}

double EmpiricalDistribution::MaxValue() const {
  TS_CHECK(!atoms_.empty());
  return atoms_.back().value;
}

double EmpiricalDistribution::MinValue() const {
  TS_CHECK(!atoms_.empty());
  return atoms_.front().value;
}

EmpiricalDistribution::TailView EmpiricalDistribution::ConditionalTail(double elapsed) const {
  TailView view;
  // Atoms are sorted ascending, so the survivors (value > elapsed) are a
  // contiguous suffix. A NaN elapsed makes every `value > elapsed` false, so
  // nothing survives and the view is empty.
  size_t begin = 0;
  while (begin < atoms_.size() && !(atoms_[begin].value > elapsed)) {
    ++begin;
  }
  if (begin == atoms_.size()) {
    return view;
  }
  view.first = &atoms_[begin];
  view.count = atoms_.size() - begin;
  for (size_t i = begin; i < atoms_.size(); ++i) {
    view.mass += atoms_[i].probability;
  }
  return view;
}

EmpiricalDistribution EmpiricalDistribution::ConditionalGivenExceeds(double elapsed) const {
  const TailView view = ConditionalTail(elapsed);
  if (view.empty()) {
    // No survivors, or a zero-mass tail (verbatim-restored atom sets may
    // carry zero-probability atoms): renormalizing would divide by zero.
    return EmpiricalDistribution();
  }
  return FromAtoms(std::vector<Atom>(view.first, view.first + view.count));
}

double EmpiricalDistribution::ExpectedValue(const std::function<double(double)>& f) const {
  return ExpectedValue<std::function<double(double)>>(f);
}

EmpiricalDistribution EmpiricalDistribution::Scaled(double factor) const {
  TS_CHECK_GT(factor, 0.0);
  std::vector<Atom> out = atoms_;
  for (Atom& a : out) {
    a.value *= factor;
  }
  return FromAtoms(std::move(out));
}

EmpiricalDistribution EmpiricalDistribution::Shifted(double delta) const {
  std::vector<Atom> out = atoms_;
  for (Atom& a : out) {
    a.value = std::max(a.value + delta, 0.0);
  }
  return FromAtoms(std::move(out));
}

template <typename Io, typename Self>
void EmpiricalDistribution::Walk(Io& io, Self& self) {
  io.Seq(self.atoms_, [&](auto& a) {
    io.Double(a.value);
    io.Double(a.probability);
  }, 2 * sizeof(double));
}

void EmpiricalDistribution::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }

void EmpiricalDistribution::RestoreState(SnapshotReader& reader) {
  Walk(reader, *this);
  // FromAtoms (behind Scaled/Shifted) requires finite, non-negative atoms
  // with positive total mass.
  double total = 0.0;
  for (const Atom& a : atoms_) {
    if (!std::isfinite(a.value) || !std::isfinite(a.probability) || a.probability < 0.0) {
      reader.Fail("distribution atom out of range");
      return;
    }
    total += a.probability;
  }
  if (!atoms_.empty() && !(total > 0.0)) {
    reader.Fail("distribution has no probability mass");
  }
}

}  // namespace threesigma
