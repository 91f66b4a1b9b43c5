// Seeded synthetic models shaped like the scheduler's cycle MILPs, shared by
// the solver micro-benchmarks and the solver work-count golden test.

#ifndef SRC_SOLVER_SYNTHETIC_H_
#define SRC_SOLVER_SYNTHETIC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

// `jobs` jobs x `options_per_job` binary options with objective in [0.1, 10),
// one at-most-one demand row per job, then `capacity_rows` shared <= rows
// that each option joins with probability 0.4 (coefficient in [0.5, 4)).
// Appends every option variable to `int_vars`.
LpModel SchedulerShapedModel(int jobs, int options_per_job, int capacity_rows, Rng& rng,
                             std::vector<int>* int_vars);

// A seeded sequence of scheduler-shaped cycle models whose columns and rows
// carry stable keys, the way the scheduler's do: an option column is keyed
// by (job id, option id), a demand row by job id, a capacity row by its
// index. Each Next() drops a tenth of the jobs and admits as many new ones,
// drops or adds an option of a tenth of the surviving jobs each, scales
// every surviving objective by [0.9, 1.1) and every capacity right-hand side
// by [0.8, 1.15) — so the last cycle's optimal basis, mapped onto the new
// model by key, is typically neither primal nor dual feasible there.
class SchedulerShapedCycles {
 public:
  SchedulerShapedCycles(int jobs, int options_per_job, int capacity_rows, uint64_t seed);

  // Advances to the next cycle's model.
  void Next();

  const LpModel& model() const { return model_; }
  const std::vector<int>& int_vars() const { return int_vars_; }

  // Maps `previous`, a basis over the previous cycle's model, onto the
  // current model by key: a surviving key keeps its status, a new column is
  // at its lower bound, a new row's slack is basic. Keys are built in
  // ascending order, so this is one merge pass.
  LpBasis MapBasis(const LpBasis& previous) const;

 private:
  struct Option {
    int id;
    double objective;
    std::vector<LpTerm> capacity;  // (capacity row, coefficient).
  };
  struct Job {
    int id;
    int next_option = 0;
    std::vector<Option> options;
  };
  struct Keys {
    std::vector<std::pair<int, int>> columns;  // (job id, option id).
    std::vector<int> demand_rows;              // Job ids.
  };

  Option NewOption(Job& job);
  void AddJob();
  void Build();

  int options_per_job_;
  Rng rng_;
  int next_job_ = 0;
  std::vector<Job> jobs_;  // Ascending id.
  std::vector<double> capacity_rhs_;
  LpModel model_;
  std::vector<int> int_vars_;
  Keys keys_, previous_keys_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_SYNTHETIC_H_
