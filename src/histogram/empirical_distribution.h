// Empirical runtime distributions.
//
// 3σSched consumes runtime distributions through this type. A distribution is
// a finite set of weighted atoms (runtime, probability) sorted by runtime —
// exactly what an 80-bin streaming histogram provides. Atoms make all of the
// scheduler's math exact and cheap:
//   - CDF / survival queries are prefix sums (Eq. 3's 1 − CDF(t)),
//   - the elapsed-time conditional update is an exact renormalization of the
//     surviving atoms (Eq. 2),
//   - expected utility (Eq. 1) is a weighted sum over atoms.

#ifndef SRC_HISTOGRAM_EMPIRICAL_DISTRIBUTION_H_
#define SRC_HISTOGRAM_EMPIRICAL_DISTRIBUTION_H_

#include <functional>
#include <vector>

#include "src/histogram/stream_histogram.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

class EmpiricalDistribution {
 public:
  struct Atom {
    double value;
    double probability;
  };

  EmpiricalDistribution() = default;

  // A degenerate (point-mass) distribution; how point estimates are plumbed
  // through the distribution-based machinery (3SigmaNoDist, PointPerfEst...).
  static EmpiricalDistribution Point(double value);
  // Equal-weight atoms, one per sample (duplicates merge).
  static EmpiricalDistribution FromSamples(std::vector<double> samples);
  // One atom per histogram bin, weighted by bin count.
  static EmpiricalDistribution FromHistogram(const StreamHistogram& hist);
  // Discretized normal truncated at zero; used by the Fig. 9 perturbation
  // study, which feeds the scheduler ~N(runtime·(1+shift), runtime·CoV).
  static EmpiricalDistribution FromNormal(double mean, double stddev, size_t atoms = 41);
  // Discretized uniform on [lo, hi]; the paper's §2.3/Fig. 5 worked example.
  static EmpiricalDistribution FromUniform(double lo, double hi, size_t atoms = 41);

  bool empty() const { return atoms_.empty(); }
  size_t size() const { return atoms_.size(); }
  const std::vector<Atom>& atoms() const { return atoms_; }

  // P(T <= t).
  double CdfAtMost(double t) const;
  // P(T > t) = 1 − CDF(t): the probability the job still holds resources at
  // elapsed time t (Eq. 3).
  double Survival(double t) const;
  double Mean() const;
  // Standard deviation of the atom distribution (population form).
  double StdDev() const;
  // Smallest value v with P(T <= v) >= q.
  double Quantile(double q) const;
  // Largest observed runtime; running past it is the under-estimate signal
  // (§4.2.1).
  double MaxValue() const;
  double MinValue() const;

  // Zero-copy form of the Eq. 2 update: the contiguous suffix of atoms with
  // value > elapsed (atoms are sorted, so the survivors are a suffix) plus
  // their unnormalized mass. A view into this distribution's storage, valid
  // only while the distribution is alive and unmodified. `empty()` covers
  // both edge cases ConditionalGivenExceeds must handle: elapsed at/past the
  // last atom (no survivors) and a zero-mass tail (survivors exist but carry
  // no probability — possible for snapshot-restored atom sets, which are
  // adopted verbatim). A NaN elapsed compares false against every value, so
  // no atom qualifies as a survivor and the view is empty.
  struct TailView {
    const Atom* first = nullptr;  // Suffix start; nullptr when count == 0.
    size_t count = 0;             // Surviving atoms.
    double mass = 0.0;            // Unnormalized survivor mass.
    bool empty() const { return count == 0 || !(mass > 0.0); }
  };
  TailView ConditionalTail(double elapsed) const;

  // The Eq. 2 update: distribution of T given T > elapsed. Returns an empty
  // distribution when no atom survives (the job outran its entire history —
  // the under-estimate case the caller must handle) or when the surviving
  // tail carries zero mass (renormalizing it would divide by zero).
  EmpiricalDistribution ConditionalGivenExceeds(double elapsed) const;

  // E[f(T)] — the Eq. 1 workhorse. The template form binds any callable
  // without the allocation + indirect call of a std::function (function_ref
  // semantics); the std::function overload remains as a thin wrapper for
  // callers that already hold one. Overload resolution prefers the exact
  // non-template match for a std::function argument and the template for
  // everything else (lambdas, function pointers, functors).
  template <typename F>
  double ExpectedValue(const F& f) const {
    double total = 0.0;
    for (const Atom& a : atoms_) {
      total += f(a.value) * a.probability;
    }
    return total;
  }
  double ExpectedValue(const std::function<double(double)>& f) const;

  // Returns a copy with every atom value multiplied by `factor` (> 0); models
  // the workload's slower non-preferred resources (jobs run 1.5× longer).
  EmpiricalDistribution Scaled(double factor) const;
  // Returns a copy with every atom shifted by `delta` (values clamped >= 0).
  EmpiricalDistribution Shifted(double delta) const;

  // Snapshot codec hooks. RestoreState adopts the atoms verbatim — no
  // renormalization — so a restored distribution is bit-identical.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  static EmpiricalDistribution FromAtoms(std::vector<Atom> atoms);
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  std::vector<Atom> atoms_;  // Sorted by value; probabilities sum to 1.
};

}  // namespace threesigma

#endif  // SRC_HISTOGRAM_EMPIRICAL_DISTRIBUTION_H_
