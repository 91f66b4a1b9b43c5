#include "src/core/experiment.h"

namespace threesigma {
namespace {

void Pretrain(RuntimePredictor& predictor, const GeneratedWorkload& workload) {
  for (const JobSpec& job : workload.pretrain) {
    predictor.RecordCompletion(job.features, job.true_runtime);
  }
}

SimResult Simulate(SystemInstance& instance, const ExperimentConfig& config,
                   const GeneratedWorkload& workload, bool pretrain) {
  if (config.obs.any()) {
    obs::Configure(config.obs);
  }
  if (pretrain) {
    Pretrain(*instance.predictor, workload);
  }
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  return sim.Run();
}

}  // namespace

RunMetrics RunSystem(SystemKind kind, const ExperimentConfig& config,
                     const GeneratedWorkload& workload) {
  SystemInstance instance = MakeSystem(kind, config.cluster, config.sched);
  const SimResult result = Simulate(instance, config, workload, /*pretrain=*/true);
  return ComputeMetrics(result, SystemName(kind));
}

RunMetrics RunSystemInstance(SystemInstance& instance, const std::string& display_name,
                             const ExperimentConfig& config, const GeneratedWorkload& workload,
                             bool pretrain) {
  const SimResult result = Simulate(instance, config, workload, pretrain);
  return ComputeMetrics(result, display_name);
}

std::vector<RunMetrics> RunSystems(const std::vector<SystemKind>& kinds,
                                   const ExperimentConfig& config,
                                   const GeneratedWorkload& workload) {
  std::vector<RunMetrics> out;
  out.reserve(kinds.size());
  for (SystemKind kind : kinds) {
    out.push_back(RunSystem(kind, config, workload));
  }
  return out;
}

SimResult SimulateSystem(SystemKind kind, const ExperimentConfig& config,
                         const GeneratedWorkload& workload) {
  SystemInstance instance = MakeSystem(kind, config.cluster, config.sched);
  return Simulate(instance, config, workload, /*pretrain=*/true);
}

bool ResumeSystem(SystemKind kind, const std::string& checkpoint_path,
                  const DistSchedulerConfig& sched, const SimOptions& local,
                  SimResult* result, std::string* error) {
  CheckpointInfo info;
  if (!Simulator::PeekCheckpoint(checkpoint_path, &info, error)) {
    return false;
  }
  SystemInstance instance = MakeSystem(kind, info.cluster, sched);
  SimOptions options = info.options;
  options.checkpoint_every = local.checkpoint_every;
  options.checkpoint_dir = local.checkpoint_dir;
  options.max_cycles = local.max_cycles;
  // The snapshot's job records stand in for this empty workload.
  Simulator sim(info.cluster, instance.scheduler.get(), {}, options);
  if (!sim.TryResumeFrom(checkpoint_path, error)) {
    return false;
  }
  *result = sim.Run();
  return true;
}

}  // namespace threesigma
