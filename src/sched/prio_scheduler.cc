#include "src/sched/prio_scheduler.h"

#include <algorithm>
#include <chrono>

#include "src/common/check.h"

namespace threesigma {

PrioScheduler::PrioScheduler(const ClusterConfig& cluster, PrioSchedulerConfig config)
    : cluster_(cluster), config_(std::move(config)) {}

void PrioScheduler::OnJobArrival(const JobSpec& spec, Time now) {
  jobs_[spec.id] = spec;
  pending_.push_back(spec.id);
  (void)now;
}

void PrioScheduler::OnJobStarted(JobId id, int /*group*/, Time /*now*/) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
}

void PrioScheduler::OnJobFinished(JobId id, Time /*now*/, Duration /*observed_runtime*/) {
  jobs_.erase(id);
}

void PrioScheduler::OnJobPreempted(JobId id, Time /*now*/) {
  TS_CHECK(jobs_.count(id) > 0);
  pending_.push_back(id);
}

void PrioScheduler::OnJobCancelled(JobId id, Time /*now*/) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id), pending_.end());
  jobs_.erase(id);
}

CycleResult PrioScheduler::RunCycle(Time now, const ClusterStateView& state) {
  const auto cycle_start = std::chrono::steady_clock::now();
  CycleResult result;
  const int num_groups = cluster_.num_groups();

  // Mutable free-node view; preemptions and starts update it as we go.
  std::vector<int> free = state.free_nodes;
  // Preemptable BE jobs per group, newest start first (cheapest to kill).
  std::vector<std::vector<RunningJobView>> be_running(num_groups);
  for (const RunningJobView& r : state.running) {
    if (r.type == JobType::kBestEffort) {
      be_running[r.group].push_back(r);
    }
  }
  for (auto& group : be_running) {
    std::sort(group.begin(), group.end(), [](const RunningJobView& a, const RunningJobView& b) {
      return a.start_time > b.start_time;
    });
  }

  // SLO jobs by earliest deadline, then best-effort by submit order.
  std::vector<JobId> slo;
  std::vector<JobId> be;
  for (JobId id : pending_) {
    (jobs_.at(id).is_slo() ? slo : be).push_back(id);
  }
  std::sort(slo.begin(), slo.end(),
            [&](JobId a, JobId b) { return jobs_.at(a).deadline < jobs_.at(b).deadline; });
  std::sort(be.begin(), be.end(),
            [&](JobId a, JobId b) { return jobs_.at(a).submit_time < jobs_.at(b).submit_time; });

  auto try_place = [&](const JobSpec& spec, bool allow_preempt) -> bool {
    const int k = spec.num_tasks;
    // Preferred groups first (greatest free space first), then the rest.
    std::vector<int> order;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<int> groups;
      for (int g = 0; g < num_groups; ++g) {
        if (cluster_.group(g).node_count < k) {
          continue;
        }
        if ((pass == 0) == spec.PrefersGroup(g)) {
          groups.push_back(g);
        }
      }
      std::sort(groups.begin(), groups.end(), [&](int a, int b) { return free[a] > free[b]; });
      order.insert(order.end(), groups.begin(), groups.end());
    }
    for (int g : order) {
      if (free[g] >= k) {
        result.start.push_back(Placement{spec.id, g});
        free[g] -= k;
        return true;
      }
    }
    if (!allow_preempt || !config_.enable_preemption) {
      return false;
    }
    // Preempt newest best-effort jobs in the single group where the fewest
    // victims unlock enough space.
    int best_group = -1;
    int best_victims = INT32_MAX;
    for (int g : order) {
      int need = k - free[g];
      int victims = 0;
      for (const RunningJobView& r : be_running[g]) {
        if (need <= 0) {
          break;
        }
        need -= r.num_tasks;
        ++victims;
      }
      if (need <= 0 && victims < best_victims) {
        best_victims = victims;
        best_group = g;
      }
    }
    if (best_group < 0) {
      return false;
    }
    int need = k - free[best_group];
    while (need > 0) {
      TS_CHECK(!be_running[best_group].empty());
      const RunningJobView victim = be_running[best_group].front();
      be_running[best_group].erase(be_running[best_group].begin());
      result.preempt.push_back(victim.id);
      free[best_group] += victim.num_tasks;
      need -= victim.num_tasks;
    }
    result.start.push_back(Placement{spec.id, best_group});
    free[best_group] -= k;
    return true;
  };

  for (JobId id : slo) {
    try_place(jobs_.at(id), /*allow_preempt=*/true);
  }
  for (JobId id : be) {
    try_place(jobs_.at(id), /*allow_preempt=*/false);
  }

  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - cycle_start;
  result.cycle_seconds = elapsed.count();
  (void)now;
  return result;
}

// "sched" section layout version. v2: the pending order only; the specs come
// from the simulator's records.
constexpr uint32_t kPrioSectionVersion = 2;

template <typename Io, typename Self>
void PrioScheduler::Walk(Io& io, Self& self) {
  io.Tag("prio");
  io.Seq(self.pending_, [&](auto& id) { io.VarInt(id); });
}

void PrioScheduler::SaveState(SnapshotWriter& writer) const {
  writer.BeginSection("sched", kPrioSectionVersion);
  Walk(writer, *this);
  writer.EndSection();
}

void PrioScheduler::RestoreState(SnapshotReader& reader) {
  uint32_t version = 0;
  reader.BeginSection("sched", &version);
  if (reader.ok() && version != kPrioSectionVersion) {
    reader.Fail("unsupported sched section version " + std::to_string(version));
    return;
  }
  Walk(reader, *this);
  reader.EndSection();
}

void PrioScheduler::OnJobsRestored(const std::vector<const JobRecord*>& live,
                                   SnapshotReader& reader) {
  jobs_.clear();
  for (const JobRecord* rec : live) {
    jobs_[rec->spec.id] = rec->spec;
  }
  // RunCycle looks every pending id up in jobs_.
  if (!PendingQueueMatches(pending_, live)) {
    reader.Fail("scheduler pending queue does not match the simulator's live jobs");
  }
}

}  // namespace threesigma
