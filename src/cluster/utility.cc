#include "src/cluster/utility.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

UtilityFunction UtilityFunction::SloStep(double value, Time deadline) {
  TS_CHECK_GT(value, 0.0);
  UtilityFunction u;
  u.kind_ = Kind::kStep;
  u.value_ = value;
  u.deadline_ = deadline;
  return u;
}

UtilityFunction UtilityFunction::SloStepWithDecay(double value, Time deadline,
                                                  Duration decay_window) {
  TS_CHECK_GT(value, 0.0);
  TS_CHECK_GT(decay_window, 0.0);
  UtilityFunction u;
  u.kind_ = Kind::kStepDecay;
  u.value_ = value;
  u.deadline_ = deadline;
  u.window_ = decay_window;
  return u;
}

UtilityFunction UtilityFunction::BestEffortLinear(double value, Time submit_time,
                                                  Duration horizon) {
  TS_CHECK_GT(value, 0.0);
  TS_CHECK_GT(horizon, 0.0);
  UtilityFunction u;
  u.kind_ = Kind::kLinear;
  u.value_ = value;
  u.start_ = submit_time;
  u.window_ = horizon;
  return u;
}

double UtilityFunction::ValueAtCompletion(Time completion) const {
  switch (kind_) {
    case Kind::kStep:
      return completion <= deadline_ ? value_ : 0.0;
    case Kind::kStepDecay: {
      if (completion <= deadline_) {
        return value_;
      }
      const double overshoot = completion - deadline_;
      return value_ * std::max(0.0, 1.0 - overshoot / window_);
    }
    case Kind::kLinear: {
      const double elapsed = std::max(completion - start_, 0.0);
      // A small floor keeps very old BE jobs schedulable rather than starved.
      return value_ * std::max(0.02, 1.0 - elapsed / window_);
    }
  }
  return 0.0;
}

UtilityFunction UtilityFunction::WithOverestimateDecay(Duration decay_window) const {
  if (kind_ != Kind::kStep) {
    return *this;
  }
  return SloStepWithDecay(value_, deadline_, decay_window);
}

template <typename Io, typename Self>
void UtilityFunction::Walk(Io& io, Self& self) {
  io.Enum(self.kind_, Kind::kLinear);
  io.Double(self.value_);
  io.Double(self.deadline_);
  io.Double(self.start_);
  io.Double(self.window_);
}

void UtilityFunction::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void UtilityFunction::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

}  // namespace threesigma
