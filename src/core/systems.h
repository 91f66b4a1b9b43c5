// System registry — Table 1 of the paper plus the Fig. 8 ablations.
//
// A "system" is a (predictor, scheduler) pair. MakeSystem wires the seven
// named configurations; MakeSyntheticSystem builds the Fig. 9 variants whose
// predictor hands the scheduler hand-shaped normal distributions.

#ifndef SRC_CORE_SYSTEMS_H_
#define SRC_CORE_SYSTEMS_H_

#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sched/prio_scheduler.h"
#include "src/sched/scheduler.h"

namespace threesigma {

enum class SystemKind {
  kThreeSigma,         // Distributions + adaptive over-estimate handling.
  kThreeSigmaNoDist,   // Point estimates, OE handling kept.
  kThreeSigmaNoOE,     // Distributions, OE handling off.
  kThreeSigmaNoAdapt,  // Distributions, OE handling always on.
  kPointPerfEst,       // Oracle point estimates (hypothetical).
  kPointRealEst,       // State-of-the-art point-estimate scheduler.
  kPrio,               // Runtime-unaware priority scheduler.
};

const char* SystemName(SystemKind kind);

struct SystemInstance {
  std::unique_ptr<RuntimePredictor> predictor;
  std::unique_ptr<Scheduler> scheduler;
  // Set only for wrapped predictors (e.g. the padded-point baseline), which
  // need the wrapped history-based predictor kept alive and pre-trained.
  std::unique_ptr<RuntimePredictor> inner_predictor;
};

// Applies `kind`'s policy toggles (Table 1) and display name to `config`.
// False, with `config` untouched, for Prio, which is not a
// DistributionScheduler.
bool ApplySystemPolicy(SystemKind kind, DistSchedulerConfig* config);

// The predictor `kind` runs: oracle estimates for PointPerfEst (and for Prio,
// which never reads them), the history-based 3Sigma predictor otherwise.
std::unique_ptr<RuntimePredictor> MakeSystemPredictor(SystemKind kind);

// Builds a named system against `cluster`. `base` supplies the shared
// scheduler knobs (plan-ahead, budgets, ...); policy toggles and the display
// name are overridden per system. The cluster reference must outlive the
// instance.
SystemInstance MakeSystem(SystemKind kind, const ClusterConfig& cluster,
                          const DistSchedulerConfig& base);

// Fig. 9 system: distributions ~N(runtime·(1+shift), runtime·cov); cov == 0
// gives the "point" baseline of that figure.
SystemInstance MakeSyntheticSystem(double shift, double cov, const ClusterConfig& cluster,
                                   const DistSchedulerConfig& base, uint64_t seed);

// Fig. 11 (E2E-SAMPLE-n) system: a history-based system whose per-population
// histories are frozen at `sample_cap` observations. Valid only for the
// history-based kinds (3Sigma and its ablations, PointRealEst).
SystemInstance MakeSampleCappedSystem(SystemKind kind, int sample_cap,
                                      const ClusterConfig& cluster,
                                      const DistSchedulerConfig& base);

// §2.2's "stochastic scheduler" baseline: a point scheduler fed estimates
// padded by `padding_stddevs` standard deviations of the predicted
// distribution. k = 0 is exactly PointRealEst.
SystemInstance MakePaddedPointSystem(double padding_stddevs, const ClusterConfig& cluster,
                                     const DistSchedulerConfig& base);

}  // namespace threesigma

#endif  // SRC_CORE_SYSTEMS_H_
