#include "src/sched/valuation.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

uint64_t DoubleBits(double x) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x), "double is not 64-bit");
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Bitwise equality — the crosscheck contract is exact replication, and NaN
// != NaN would make a value comparison silently pass-through NaN divergence.
bool BitEqual(double a, double b) { return DoubleBits(a) == DoubleBits(b); }

// First atom whose completion misses the deadline. The predicate computes
// `start + value <= deadline` with the generic comparison's exact rounding;
// NaN start or deadline makes every comparison false (boundary 0), which
// replays the generic all-zero-terms accumulation.
size_t FlatRegionEnd(const ValuationTables& t, double start, double deadline) {
  const auto it =
      std::partition_point(t.value.begin(), t.value.end(),
                           [start, deadline](double v) { return start + v <= deadline; });
  return static_cast<size_t>(it - t.value.begin());
}

// The table contract: scaled atoms and prefix sums accumulated in exactly
// the generic code's order (see the header comment).
ValuationTables BuildTables(double scale, const EmpiricalDistribution& dist,
                            const UtilityFunction& utility) {
  ValuationTables t;
  t.scale = scale;
  // Bit-exactness by construction: a scale != 1 table adopts the atoms of a
  // real Scaled() call (same sort/merge/renormalization rounding as the
  // generic computation); scale == 1 adopts the distribution verbatim,
  // matching the generic path's skip of Scaled() there. An empty distribution
  // (no prediction mass) yields trivial tables: EU 0.0, survival 1.0 —
  // matching the generic loops, which never execute.
  EmpiricalDistribution scaled_storage;
  const EmpiricalDistribution* src = &dist;
  if (scale != 1.0 && !dist.empty()) {
    scaled_storage = dist.Scaled(scale);
    src = &scaled_storage;
  }
  const std::vector<EmpiricalDistribution::Atom>& atoms = src->atoms();
  t.value.reserve(atoms.size());
  t.prob.reserve(atoms.size());
  t.prefix_mass.reserve(atoms.size() + 1);
  t.prefix_util.reserve(atoms.size() + 1);
  t.prefix_mass.push_back(0.0);
  t.prefix_util.push_back(0.0);
  const double peak = utility.peak_value();
  double mass = 0.0;
  double util = 0.0;
  for (const EmpiricalDistribution::Atom& a : atoms) {
    t.value.push_back(a.value);
    t.prob.push_back(a.probability);
    mass += a.probability;       // CdfAtMost's accumulation order.
    util += peak * a.probability;  // Eq. 1's flat-region accumulation order.
    t.prefix_mass.push_back(mass);
    t.prefix_util.push_back(util);
  }
  return t;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return BitEqual(x, y); });
}

}  // namespace

size_t ValuationTables::CountAtMost(double t) const {
  // CdfAtMost includes atoms until `value > t` breaks the loop, which means
  // the inclusion predicate is !(value > t) — kept in that form so a NaN t
  // (all comparisons false) includes every atom, exactly like the generic
  // loop that never breaks.
  const auto it = std::partition_point(value.begin(), value.end(),
                                       [t](double v) { return !(v > t); });
  return static_cast<size_t>(it - value.begin());
}

const ValuationTables& ValuationEngine::Tables(JobId job, double scale,
                                               const EmpiricalDistribution& dist,
                                               const UtilityFunction& utility,
                                               ValuationCounters* counters) {
  const Key key{job, DoubleBits(scale)};
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    if (counters != nullptr) {
      ++counters->cache_hits;
    }
    if (crosscheck_) {
      // A hit must be exactly what a miss would build now; anything else
      // means a prediction changed without InvalidateJob.
      const ValuationTables fresh = BuildTables(scale, dist, utility);
      const ValuationTables& cached = it->second;
      TS_CHECK_MSG(BitEqual(cached.value, fresh.value) && BitEqual(cached.prob, fresh.prob) &&
                       BitEqual(cached.prefix_mass, fresh.prefix_mass) &&
                       BitEqual(cached.prefix_util, fresh.prefix_util),
                   "stale valuation table for job " << job << " scale " << scale
                                                    << " (missed InvalidateJob?)");
    }
    return it->second;
  }
  if (counters != nullptr) {
    ++counters->cache_misses;
  }
  return cache_.emplace(key, BuildTables(scale, dist, utility)).first->second;
}

const ValuationTables* ValuationEngine::Find(JobId job, double scale) const {
  const auto it = cache_.find(Key{job, DoubleBits(scale)});
  return it == cache_.end() ? nullptr : &it->second;
}

double ValuationEngine::ExpectedUtility(const ValuationTables& t, const UtilityFunction& u,
                                        double start, ValuationCounters* counters) const {
  if (counters != nullptr) {
    ++counters->kernel_calls;
  }
  double eu = 0.0;
  switch (u.kind()) {
    case UtilityFunction::Kind::kStep: {
      // Generic term: ((start + v <= deadline) ? peak : 0.0) · p. The zero
      // terms are +0.0 additions — bitwise no-ops on the non-negative
      // accumulator — so the prefix over the flat region is the answer.
      eu = t.prefix_util[FlatRegionEnd(t, start, u.deadline())];
      break;
    }
    case UtilityFunction::Kind::kStepDecay: {
      const size_t boundary = FlatRegionEnd(t, start, u.deadline());
      eu = t.prefix_util[boundary];
      for (size_t k = boundary; k < t.size(); ++k) {
        const double uval = u.ValueAtCompletion(start + t.value[k]);
        if (uval == 0.0) {
          // The decay is monotone non-increasing past the deadline, so every
          // later generic term is a +0.0 no-op.
          break;
        }
        eu += uval * t.prob[k];
      }
      break;
    }
    case UtilityFunction::Kind::kLinear: {
      // No prefix shortcut (the 0.02 floor keeps every term positive).
      // ValueAtCompletion's kLinear branch, inline: the same operations in
      // the same order, so each term is bit for bit the generic one.
      const double origin = u.start();
      const double window = u.window();
      const double peak = u.peak_value();
      for (size_t k = 0; k < t.size(); ++k) {
        const double elapsed = std::max(start + t.value[k] - origin, 0.0);
        eu += peak * std::max(0.02, 1.0 - elapsed / window) * t.prob[k];
      }
      break;
    }
  }
  if (crosscheck_) {
    double ref = 0.0;
    for (size_t k = 0; k < t.size(); ++k) {
      ref += u.ValueAtCompletion(start + t.value[k]) * t.prob[k];
    }
    TS_CHECK_MSG(BitEqual(eu, ref), "valuation kernel diverged from the generic Eq. 1 loop: "
                                        << eu << " vs " << ref << " (start " << start << ")");
  }
  return eu;
}

double ValuationEngine::Survival(const ValuationTables& t, double x) const {
  const double s = t.Survival(x);
  if (crosscheck_) {
    // Replay CdfAtMost over the table arrays.
    double mass = 0.0;
    for (size_t k = 0; k < t.size(); ++k) {
      if (t.value[k] > x) {
        break;
      }
      mass += t.prob[k];
    }
    TS_CHECK_MSG(BitEqual(s, 1.0 - mass),
                 "survival table diverged from the generic CDF loop at t = " << x);
  }
  return s;
}

void ValuationEngine::InvalidateJob(JobId job) {
  cache_.erase(cache_.lower_bound(Key{job, 0}),
               cache_.lower_bound(Key{job + 1, 0}));
}

namespace {

// The persisted form of the cache: its (job, scale) key set.
template <typename Io, typename Keys>
void WalkKeys(Io& io, Keys& keys) {
  io.Seq(keys, [&](auto& key) {
    io.VarInt(key.first);
    io.Double(key.second);
  }, 1 + sizeof(double));
}

}  // namespace

void ValuationEngine::SaveState(SnapshotWriter& writer) const {
  std::vector<std::pair<JobId, double>> keys;
  keys.reserve(cache_.size());
  for (const auto& [key, tables] : cache_) {
    keys.emplace_back(key.first, DoubleFromBits(key.second));
  }
  WalkKeys(writer, keys);
}

std::vector<std::pair<JobId, double>> ValuationEngine::ReadSavedKeys(SnapshotReader& reader) {
  std::vector<std::pair<JobId, double>> keys;
  WalkKeys(reader, keys);
  return keys;
}

}  // namespace threesigma
