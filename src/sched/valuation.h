// Deterministic Eq. 1 valuation engine.
//
// The scheduling cycle's hottest loop values every (pending job, group, start
// slot) option by expected utility over the job's predicted runtime
// distribution (Eq. 1) and charges every running job's conditional survival
// into the Eq. 3 capacity rows (Eq. 2). The generic way to do both goes
// through EmpiricalDistribution: a std::function-indirected per-atom loop for
// Eq. 1, plus a full Scaled() materialization per (job, group) per cycle
// whenever a group runs the job slower than its preferred one. This engine
// replaces that with per-(job, scale) query tables and closed-form kernels —
// and it does so *bit-exactly*: the generic loop stays behind as the
// crosscheck oracle, and the committed golden decision traces (and the
// MILP's float-tie-sensitive branching) were recorded against it.
//
// Tables. For each (job, scale) pair the engine stores the scaled atom
// values, their renormalized probabilities, and two prefix-sum arrays
// accumulated in exactly the order the generic code would:
//   prefix_mass[k]  = p'_0 + ... + p'_{k-1}        (CdfAtMost's partial sums)
//   prefix_util[k]  = Σ_{i<k} peak · p'_i          (Eq. 1's flat-region terms)
// The scaled atoms are produced by literally calling Scaled() on a miss (and
// adopting the distribution verbatim when scale == 1, where the generic path
// skips Scaled() too), so merging/renormalization bit patterns are identical
// by construction.
//
// Kernels. The generic Eq. 1 accumulator adds f(v_k)·p'_k left to right.
//   kStep:      f is peak on the prefix with start + v_k <= deadline and 0.0
//               after; +0.0 additions are bitwise no-ops on a non-negative
//               accumulator, so the answer is prefix_util at the boundary —
//               one std::partition_point (O(log B)) + one load. The boundary
//               predicate evaluates `start + value <= deadline` exactly as
//               the generic comparison does (never algebraically rearranged:
//               `value <= deadline - start` rounds differently).
//   kStepDecay: prefix_util up to the deadline boundary, then a per-atom
//               replay across the decay window, breaking once the decayed
//               utility reaches 0.0 (it is monotone non-increasing, so all
//               later generic terms are +0.0 no-ops).
//   kLinear:    a per-atom replay of the whole array — no prefix shortcut
//               exists — with the utility's linear decay evaluated inline
//               (ValueAtCompletion's operations, in its order) instead of
//               one out-of-line call per atom.
// Survival(t) = 1.0 − prefix_mass[idx] with idx from a partition_point using
// CdfAtMost's inclusion predicate !(value > t) — which also replicates its
// NaN behavior (the break never fires, so all mass is included).
//
// Cache key + invalidation. Tables are pure functions of (sched_dist,
// effective_utility, scale); both inputs change only on prediction events, so
// the scheduler invalidates per job on arrival, fault-restart re-prediction
// (which covers the forced OE-gate flip), and job exit. Scale comes from
// JobSpec::RuntimeMultiplier, fixed per (job, group) for the job's lifetime.
// In crosscheck mode every hit rebuilds the table from the caller's inputs
// and TS_CHECKs it bitwise against the cached one, so a missed invalidation
// aborts instead of silently valuing a stale prediction.
//
// Determinism. The scheduler values its considered jobs serially in a fixed
// order, and every kernel is a pure function, so the hit/miss stream and
// the decisions depend on neither wall clock nor thread count. For
// checkpoint / resume, SaveState persists the cached key set and the
// scheduler rebuilds each table from its restored job state, so a resumed
// run's hit/miss stream continues exactly where the original's would.

#ifndef SRC_SCHED_VALUATION_H_
#define SRC_SCHED_VALUATION_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/cluster/job.h"
#include "src/cluster/utility.h"
#include "src/histogram/empirical_distribution.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

// Hit/miss/kernel-call tallies for one scheduling cycle.
struct ValuationCounters {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t kernel_calls = 0;
};

// Precomputed query tables for one (distribution, scale) pair. See the file
// comment for the exact accumulation contracts.
struct ValuationTables {
  std::vector<double> value;        // Scaled atom values, ascending.
  std::vector<double> prob;         // Renormalized probabilities.
  std::vector<double> prefix_mass;  // Size value.size() + 1; [0] == 0.0.
  std::vector<double> prefix_util;  // Same shape; peak-weighted partial sums.
  double scale = 1.0;

  size_t size() const { return value.size(); }

  // Number of atoms CdfAtMost(t) would include: the first index whose value
  // compares > t (NaN t includes everything, like the generic loop).
  size_t CountAtMost(double t) const;
  // P(T_scaled > t), bit-identical to Scaled(scale).Survival(t).
  double Survival(double t) const { return 1.0 - prefix_mass[CountAtMost(t)]; }
};

// One valued (group, start slot) option of a job; `cons_offset` indexes into
// the owning JobValuation's flat consumption arena.
struct ValuedOption {
  int group = 0;
  int slot = 0;
  double eu = 0.0;
  size_t cons_offset = 0;
  int cons_len = 0;
};

// Per-job output slot: cleared and refilled every cycle, capacity retained,
// so steady-state valuation allocates nothing.
struct JobValuation {
  std::vector<ValuedOption> options;
  std::vector<double> consumption;  // Flat arena; options index into it.

  void Clear() {
    options.clear();
    consumption.clear();
  }
};

class ValuationEngine {
 public:
  // `crosscheck` (debug, tests only): re-derive every kernel and survival
  // answer with the generic per-atom loop, and every cache hit's table from
  // the caller's inputs, and TS_CHECK bitwise equality.
  explicit ValuationEngine(bool crosscheck = false) : crosscheck_(crosscheck) {}

  // Returns the tables for (job, scale), building them from `dist` /
  // `utility` on a miss. `counters`, when non-null, records the hit or miss.
  // Not thread-safe; the returned reference is stable until the next
  // InvalidateJob/Clear/RestoreState.
  const ValuationTables& Tables(JobId job, double scale, const EmpiricalDistribution& dist,
                                const UtilityFunction& utility, ValuationCounters* counters);

  // Read-only lookup (no insertion); nullptr on a missing key.
  const ValuationTables* Find(JobId job, double scale) const;

  // Eq. 1: expected utility of starting at absolute time `start`,
  // bit-identical to the generic per-atom accumulation over the scaled
  // distribution. Thread-safe (pure); bumps counters->kernel_calls.
  double ExpectedUtility(const ValuationTables& tables, const UtilityFunction& utility,
                         double start, ValuationCounters* counters) const;

  // Survival with the crosscheck applied in crosscheck mode (the plain
  // tables.Survival skips it). Thread-safe (pure).
  double Survival(const ValuationTables& tables, double t) const;

  // Drops the job's cached tables (re-prediction or job exit).
  void InvalidateJob(JobId job);
  void Clear() { cache_.clear(); }
  size_t cached_entries() const { return cache_.size(); }

  // Raw-payload snapshot hooks, composable into the caller's section.
  // SaveState persists the cached key set; ReadSavedKeys returns it so the
  // caller can rebuild each table via Tables() from restored job state
  // (tables are pure functions of that state, so the rebuilt cache — and
  // every subsequent hit/miss — is bit-identical to the uninterrupted run).
  void SaveState(SnapshotWriter& writer) const;
  static std::vector<std::pair<JobId, double>> ReadSavedKeys(SnapshotReader& reader);

 private:
  // Key: (job, exact bit pattern of the scale factor).
  using Key = std::pair<JobId, uint64_t>;

  bool crosscheck_;
  std::map<Key, ValuationTables> cache_;
};

}  // namespace threesigma

#endif  // SRC_SCHED_VALUATION_H_
