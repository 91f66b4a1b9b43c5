// Job utility functions (§3.1, Fig. 3).
//
// A utility function maps a job's *completion time* to its value. The paper
// models two shapes:
//   - SLO jobs: a step — constant value before the deadline, zero after
//     (Fig. 3a). The over-estimate handling of §4.2.2 replaces the cliff with
//     a linear decay past the deadline (Fig. 3d) so seemingly-impossible jobs
//     retain a little value and get tried when resources are free.
//   - Best-effort jobs: linearly decreasing in completion time, expressing
//     the-sooner-the-better.

#ifndef SRC_CLUSTER_UTILITY_H_
#define SRC_CLUSTER_UTILITY_H_

#include "src/common/units.h"

namespace threesigma {

class SnapshotReader;
class SnapshotWriter;

class UtilityFunction {
 public:
  // The three shapes; exposed so the valuation engine (src/sched/valuation.h)
  // can dispatch to a closed-form Eq. 1 kernel per kind instead of calling
  // ValueAtCompletion through an indirection per distribution atom.
  enum class Kind { kStep, kStepDecay, kLinear };

  // Step utility: `value` if completed by `deadline`, else 0 (Fig. 3a).
  static UtilityFunction SloStep(double value, Time deadline);
  // Step with over-estimate extension: full value until `deadline`, then a
  // linear decay to zero over `decay_window` (Fig. 3d).
  static UtilityFunction SloStepWithDecay(double value, Time deadline, Duration decay_window);
  // Best-effort: `value` at `submit_time`, decaying linearly to a small floor
  // over `horizon` (latency-sensitive preference).
  static UtilityFunction BestEffortLinear(double value, Time submit_time, Duration horizon);

  // Utility of completing at absolute time `completion`.
  double ValueAtCompletion(Time completion) const;

  // Returns this utility with the §4.2.2 decay extension applied (no-op for
  // best-effort or already-extended utilities).
  UtilityFunction WithOverestimateDecay(Duration decay_window) const;

  Kind kind() const { return kind_; }
  double peak_value() const { return value_; }
  Time deadline() const { return deadline_; }
  // Linear kind: decay origin (submit time). StepDecay/Linear: decay span.
  Time start() const { return start_; }
  Duration window() const { return window_; }
  bool is_step() const { return kind_ == Kind::kStep || kind_ == Kind::kStepDecay; }
  bool has_decay_extension() const { return kind_ == Kind::kStepDecay; }

  // Snapshot codec hooks: raw payload, composable into a parent section.
  void SaveState(SnapshotWriter& writer) const;
  void RestoreState(SnapshotReader& reader);

 private:
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  Kind kind_ = Kind::kStep;
  double value_ = 0.0;
  Time deadline_ = 0.0;          // Step kinds: the SLO deadline.
  Time start_ = 0.0;             // Linear kind: decay origin (submit time).
  Duration window_ = 0.0;        // StepDecay: decay span; Linear: horizon.
};

}  // namespace threesigma

#endif  // SRC_CLUSTER_UTILITY_H_
