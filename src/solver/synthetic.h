// Seeded synthetic models shaped like the scheduler's cycle MILPs, shared by
// the solver micro-benchmarks and the solver work-count golden test.

#ifndef SRC_SOLVER_SYNTHETIC_H_
#define SRC_SOLVER_SYNTHETIC_H_

#include <vector>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"

namespace threesigma {

// `jobs` jobs x `options_per_job` binary options with objective in [0.1, 10),
// one at-most-one demand row per job, then `capacity_rows` shared <= rows
// that each option joins with probability 0.4 (coefficient in [0.5, 4)).
// Appends every option variable to `int_vars`.
LpModel SchedulerShapedModel(int jobs, int options_per_job, int capacity_rows, Rng& rng,
                             std::vector<int>* int_vars);

}  // namespace threesigma

#endif  // SRC_SOLVER_SYNTHETIC_H_
