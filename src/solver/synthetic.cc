#include "src/solver/synthetic.h"

#include <utility>

namespace threesigma {

LpModel SchedulerShapedModel(int jobs, int options_per_job, int capacity_rows, Rng& rng,
                             std::vector<int>* int_vars) {
  LpModel model;
  std::vector<std::vector<LpTerm>> capacity(static_cast<size_t>(capacity_rows));
  for (int j = 0; j < jobs; ++j) {
    std::vector<LpTerm> demand;
    for (int o = 0; o < options_per_job; ++o) {
      const int var = model.AddVariable(0.0, 1.0, rng.Uniform(0.1, 10.0));
      int_vars->push_back(var);
      demand.push_back({var, 1.0});
      for (int c = 0; c < capacity_rows; ++c) {
        if (rng.Bernoulli(0.4)) {
          capacity[static_cast<size_t>(c)].push_back({var, rng.Uniform(0.5, 4.0)});
        }
      }
    }
    model.AddRow(RowSense::kLessEqual, 1.0, std::move(demand));
  }
  for (int c = 0; c < capacity_rows; ++c) {
    model.AddRow(RowSense::kLessEqual, rng.Uniform(4.0, 16.0),
                 std::move(capacity[static_cast<size_t>(c)]));
  }
  return model;
}

SchedulerShapedCycles::SchedulerShapedCycles(int jobs, int options_per_job, int capacity_rows,
                                             uint64_t seed)
    : options_per_job_(options_per_job), rng_(seed) {
  for (int c = 0; c < capacity_rows; ++c) {
    capacity_rhs_.push_back(rng_.Uniform(4.0, 16.0));
  }
  for (int j = 0; j < jobs; ++j) {
    AddJob();
  }
  Build();
}

SchedulerShapedCycles::Option SchedulerShapedCycles::NewOption(Job& job) {
  Option option{job.next_option++, rng_.Uniform(0.1, 10.0), {}};
  for (int c = 0; c < static_cast<int>(capacity_rhs_.size()); ++c) {
    if (rng_.Bernoulli(0.4)) {
      option.capacity.push_back({c, rng_.Uniform(0.5, 4.0)});
    }
  }
  return option;
}

void SchedulerShapedCycles::AddJob() {
  Job job{next_job_++, 0, {}};
  for (int o = 0; o < options_per_job_; ++o) {
    job.options.push_back(NewOption(job));
  }
  jobs_.push_back(std::move(job));
}

void SchedulerShapedCycles::Next() {
  const size_t count = jobs_.size();
  std::vector<Job> kept;
  for (Job& job : jobs_) {
    if (rng_.Bernoulli(0.1)) {
      continue;
    }
    if (job.options.size() > 1 && rng_.Bernoulli(0.1)) {
      job.options.erase(job.options.begin() +
                        rng_.UniformInt(0, static_cast<int64_t>(job.options.size()) - 1));
    }
    if (rng_.Bernoulli(0.1)) {
      job.options.push_back(NewOption(job));
    }
    for (Option& option : job.options) {
      option.objective *= rng_.Uniform(0.9, 1.1);
    }
    kept.push_back(std::move(job));
  }
  jobs_ = std::move(kept);
  while (jobs_.size() < count) {
    AddJob();
  }
  for (double& rhs : capacity_rhs_) {
    rhs *= rng_.Uniform(0.8, 1.15);
  }
  Build();
}

void SchedulerShapedCycles::Build() {
  previous_keys_ = std::move(keys_);
  keys_ = Keys{};
  model_ = LpModel();
  int_vars_.clear();
  std::vector<std::vector<LpTerm>> capacity(capacity_rhs_.size());
  std::vector<std::vector<LpTerm>> demand;
  for (const Job& job : jobs_) {
    demand.emplace_back();
    for (const Option& option : job.options) {
      const int var = model_.AddVariable(0.0, 1.0, option.objective);
      int_vars_.push_back(var);
      keys_.columns.emplace_back(job.id, option.id);
      demand.back().push_back({var, 1.0});
      for (const LpTerm& t : option.capacity) {
        capacity[static_cast<size_t>(t.var)].push_back({var, t.coeff});
      }
    }
    keys_.demand_rows.push_back(job.id);
  }
  for (std::vector<LpTerm>& terms : demand) {
    model_.AddRow(RowSense::kLessEqual, 1.0, std::move(terms));
  }
  for (size_t c = 0; c < capacity.size(); ++c) {
    model_.AddRow(RowSense::kLessEqual, capacity_rhs_[c], std::move(capacity[c]));
  }
}

namespace {

// Appends, for each key of `now` (ascending), the status `before` held at
// the same key (ascending `before_keys`, statuses from `before_status`), or
// `fresh` when the key is new.
template <typename Key>
void MergeStatuses(const std::vector<Key>& before_keys, const BasisStatus* before_status,
                   const std::vector<Key>& now, BasisStatus fresh,
                   std::vector<BasisStatus>* out) {
  size_t i = 0;
  for (const Key& key : now) {
    while (i < before_keys.size() && before_keys[i] < key) {
      ++i;
    }
    out->push_back(i < before_keys.size() && before_keys[i] == key ? before_status[i] : fresh);
  }
}

}  // namespace

LpBasis SchedulerShapedCycles::MapBasis(const LpBasis& previous) const {
  const size_t n = previous_keys_.columns.size();
  const size_t demand = previous_keys_.demand_rows.size();
  LpBasis mapped;
  if (previous.status.size() != n + demand + capacity_rhs_.size()) {
    return mapped;
  }
  const BasisStatus* status = previous.status.data();
  MergeStatuses(previous_keys_.columns, status, keys_.columns, BasisStatus::kAtLower,
                &mapped.status);
  MergeStatuses(previous_keys_.demand_rows, status + n, keys_.demand_rows,
                BasisStatus::kBasic, &mapped.status);
  mapped.status.insert(mapped.status.end(), status + n + demand, status + previous.status.size());
  return mapped;
}

}  // namespace threesigma
