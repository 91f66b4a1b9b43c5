#include "src/cluster/job.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/cluster.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {

bool JobSpec::PrefersGroup(int group_id) const {
  if (preferred_groups.empty()) {
    return true;
  }
  return std::find(preferred_groups.begin(), preferred_groups.end(), group_id) !=
         preferred_groups.end();
}

double JobSpec::RuntimeMultiplier(int group_id) const {
  return PrefersGroup(group_id) ? 1.0 : nonpreferred_slowdown;
}

double JobSpec::DeadlineSlackPercent() const {
  if (deadline == kNever || true_runtime <= 0.0) {
    return 0.0;
  }
  return (deadline - submit_time - true_runtime) / true_runtime * 100.0;
}

template <typename Io, typename Self>
void JobSpec::Walk(Io& io, Self& self) {
  io.VarInt(self.id);
  io.String(self.name);
  io.String(self.user);
  io.Enum(self.type, JobType::kBestEffort);
  io.Double(self.submit_time);
  io.Double(self.true_runtime);
  io.VarInt(self.num_tasks);
  io.Double(self.deadline);
  io.Seq(self.preferred_groups, [&](auto& g) { io.VarInt(g); });
  io.Double(self.nonpreferred_slowdown);
  io.Nested(self.utility);
  io.Seq(self.features, [&](auto& f) { io.String(f); });
}

void JobSpec::SaveState(SnapshotWriter& writer) const { Walk(writer, *this); }
void JobSpec::RestoreState(SnapshotReader& reader) { Walk(reader, *this); }

bool ValidateJobSpec(const JobSpec& spec, const ClusterConfig& cluster, std::string* error) {
  const auto reject = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "job " + std::to_string(spec.id) + " " + why;
    }
    return false;
  };
  const UtilityFunction& u = spec.utility;
  for (const double v : {spec.submit_time, spec.true_runtime, spec.deadline,
                         spec.nonpreferred_slowdown, u.peak_value(), u.deadline(), u.start(),
                         u.window()}) {
    if (!std::isfinite(v)) {
      return reject("has a non-finite number");
    }
  }
  if (spec.submit_time < 0.0 || spec.true_runtime <= 0.0 || spec.nonpreferred_slowdown <= 0.0) {
    return reject("needs submit_time >= 0, true_runtime > 0 and nonpreferred_slowdown > 0");
  }
  if (u.peak_value() <= 0.0 || (u.kind() != UtilityFunction::Kind::kStep && u.window() <= 0.0)) {
    return reject("has a utility with a non-positive value or window");
  }
  if (spec.num_tasks <= 0 || spec.num_tasks > cluster.max_group_size()) {
    return reject("gang width does not fit any node group");
  }
  return true;
}

bool JobRecord::MissedDeadline() const {
  if (!spec.is_slo()) {
    return false;
  }
  if (status != JobStatus::kCompleted) {
    return true;
  }
  return finish_time > spec.deadline;
}

}  // namespace threesigma
