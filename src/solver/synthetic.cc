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

}  // namespace threesigma
