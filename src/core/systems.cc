#include "src/core/systems.h"

#include "src/common/check.h"

namespace threesigma {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kThreeSigma:
      return "3Sigma";
    case SystemKind::kThreeSigmaNoDist:
      return "3SigmaNoDist";
    case SystemKind::kThreeSigmaNoOE:
      return "3SigmaNoOE";
    case SystemKind::kThreeSigmaNoAdapt:
      return "3SigmaNoAdapt";
    case SystemKind::kPointPerfEst:
      return "PointPerfEst";
    case SystemKind::kPointRealEst:
      return "PointRealEst";
    case SystemKind::kPrio:
      return "Prio";
  }
  return "unknown";
}

bool ApplySystemPolicy(SystemKind kind, DistSchedulerConfig* config) {
  switch (kind) {
    case SystemKind::kThreeSigma:
      config->use_distribution = true;
      config->overestimate_handling = true;
      config->adaptive_oe = true;
      break;
    case SystemKind::kThreeSigmaNoDist:
      config->use_distribution = false;
      config->overestimate_handling = true;
      config->adaptive_oe = true;
      break;
    case SystemKind::kThreeSigmaNoOE:
      config->use_distribution = true;
      config->overestimate_handling = false;
      break;
    case SystemKind::kThreeSigmaNoAdapt:
      config->use_distribution = true;
      config->overestimate_handling = true;
      config->adaptive_oe = false;
      break;
    case SystemKind::kPointPerfEst:
    case SystemKind::kPointRealEst:
      config->use_distribution = false;
      config->overestimate_handling = false;
      break;
    case SystemKind::kPrio:
      return false;
  }
  config->name = SystemName(kind);
  return true;
}

std::unique_ptr<RuntimePredictor> MakeSystemPredictor(SystemKind kind) {
  if (kind == SystemKind::kPointPerfEst || kind == SystemKind::kPrio) {
    return std::make_unique<PerfectPredictor>();  // Prio's is unused.
  }
  return std::make_unique<ThreeSigmaPredictor>();
}

SystemInstance MakeSystem(SystemKind kind, const ClusterConfig& cluster,
                          const DistSchedulerConfig& base) {
  SystemInstance out;
  out.predictor = MakeSystemPredictor(kind);
  DistSchedulerConfig config = base;
  if (!ApplySystemPolicy(kind, &config)) {
    PrioSchedulerConfig prio;
    prio.name = SystemName(kind);
    out.scheduler = std::make_unique<PrioScheduler>(cluster, prio);
    return out;
  }
  out.scheduler =
      std::make_unique<DistributionScheduler>(cluster, out.predictor.get(), config);
  return out;
}

SystemInstance MakeSampleCappedSystem(SystemKind kind, int sample_cap,
                                      const ClusterConfig& cluster,
                                      const DistSchedulerConfig& base) {
  TS_CHECK_NE(static_cast<int>(kind), static_cast<int>(SystemKind::kPrio));
  TS_CHECK_NE(static_cast<int>(kind), static_cast<int>(SystemKind::kPointPerfEst));
  SystemInstance out = MakeSystem(kind, cluster, base);
  // Re-wire: the scheduler must see the capped predictor instead.
  out.inner_predictor = std::move(out.predictor);
  out.predictor =
      std::make_unique<SampleCapPredictor>(out.inner_predictor.get(), sample_cap);
  auto* sched = dynamic_cast<DistributionScheduler*>(out.scheduler.get());
  TS_CHECK(sched != nullptr);
  DistSchedulerConfig config = sched->config();
  out.scheduler = std::make_unique<DistributionScheduler>(cluster, out.predictor.get(), config);
  return out;
}

SystemInstance MakePaddedPointSystem(double padding_stddevs, const ClusterConfig& cluster,
                                     const DistSchedulerConfig& base) {
  SystemInstance out;
  DistSchedulerConfig config = base;
  config.name = "PointPadded" + std::to_string(static_cast<int>(padding_stddevs * 10)) +
                "sigma/10";
  config.use_distribution = false;
  config.overestimate_handling = false;
  out.inner_predictor = std::make_unique<ThreeSigmaPredictor>();
  out.predictor =
      std::make_unique<PaddedPointPredictor>(out.inner_predictor.get(), padding_stddevs);
  out.scheduler =
      std::make_unique<DistributionScheduler>(cluster, out.predictor.get(), config);
  return out;
}

SystemInstance MakeSyntheticSystem(double shift, double cov, const ClusterConfig& cluster,
                                   const DistSchedulerConfig& base, uint64_t seed) {
  SystemInstance out;
  DistSchedulerConfig config = base;
  config.use_distribution = cov > 0.0;
  if (cov <= 0.0) {
    // The Fig. 9 "point" curve is the point-estimate scheduler, which has no
    // over-estimate handling (Table 1).
    config.overestimate_handling = false;
  }
  out.predictor = std::make_unique<SyntheticPredictor>(shift, cov, seed);
  out.scheduler =
      std::make_unique<DistributionScheduler>(cluster, out.predictor.get(), config);
  return out;
}

}  // namespace threesigma
