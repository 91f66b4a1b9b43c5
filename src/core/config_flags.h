// Shared command-line flags -> ExperimentConfig construction.
//
// Every service/tool binary that drives an experiment (run_experiment, the
// svc daemon, loadgen) accepts the same cluster/workload/simulator/scheduler
// /observability knobs. This module owns that mapping once: a binary embeds
// an ExperimentFlags, registers the shared flags on its FlagParser, and
// builds the ExperimentConfig after parsing. Tool-specific flags stay in the
// tool.

#ifndef SRC_CORE_CONFIG_FLAGS_H_
#define SRC_CORE_CONFIG_FLAGS_H_

#include <cstdint>
#include <string>

#include "src/common/flags.h"
#include "src/core/experiment.h"

namespace threesigma {

// Raw flag values, defaulted exactly as run_experiment historically did.
struct ExperimentFlags {
  std::string env_name = "google";
  double hours = 0.5;
  double load = 1.4;
  int64_t seed = 42;
  int64_t groups = 4;
  int64_t nodes_per_group = 64;
  double cycle = 10.0;
  int64_t solver_threads = 1;
  int64_t solver_max_nodes = 6;
  int64_t max_pending = 48;
  int64_t start_slots = 6;
  bool crosscheck = false;
  bool high_fidelity = false;
  double fault_mttf = 0.0;
  double fault_mttr = 600.0;
  double fault_kill_prob = 0.0;
  double fault_straggler_prob = 0.0;
  double fault_straggler_factor = 3.0;
  double fault_stall_prob = 0.0;
  int64_t fault_seed = 1;
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  int64_t max_cycles = 0;
  std::string trace_out;
  std::string trace_bin_out;
  std::string obs_phase_csv;
  std::string obs_decisions_csv;
  std::string obs_metrics_out;
  int64_t obs_ring_capacity = 1 << 16;
};

// Registers the shared flags on `parser`, bound to `*flags` (which must
// outlive parsing).
void RegisterExperimentFlags(FlagParser& parser, ExperimentFlags* flags);

// Builds the config from parsed flag values. False + `*error` naming the flag
// on an invalid value: an unknown --env name, or a number outside the range
// the cluster, workload, simulator, scheduler and fault code accept.
bool BuildExperimentConfig(const ExperimentFlags& flags, ExperimentConfig* config,
                           std::string* error);

// --checkpoint-every, --checkpoint-dir and --max-cycles are read only by
// Simulator::Run, which the service tools (serve, loadgen) never call. False
// + `*error` naming the first of them that is set, for those tools to
// refuse.
bool RejectRunOnlyFlags(const ExperimentFlags& flags, std::string* error);

// Name parsers shared by the tools ("google"/"hedgefund"/"mustang",
// Table 1 system names). False on an unknown name.
bool ParseEnvironmentName(const std::string& name, EnvironmentKind* out);
bool ParseSystemName(const std::string& name, SystemKind* out);

}  // namespace threesigma

#endif  // SRC_CORE_CONFIG_FLAGS_H_
