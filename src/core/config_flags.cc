#include "src/core/config_flags.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "src/sched/distribution_scheduler.h"

namespace threesigma {

void RegisterExperimentFlags(FlagParser& parser, ExperimentFlags* flags) {
  parser.AddString("env", &flags->env_name, "workload model: google | hedgefund | mustang")
      .AddDouble("hours", &flags->hours, "workload window length in hours")
      .AddDouble("load", &flags->load, "offered load (machine-time / capacity)")
      .AddInt("seed", &flags->seed, "base RNG seed")
      .AddInt("groups", &flags->groups, "node groups (equivalence sets)")
      .AddInt("nodes-per-group", &flags->nodes_per_group, "nodes per group")
      .AddDouble("cycle", &flags->cycle, "scheduling cycle period in seconds")
      .AddInt("solver-threads", &flags->solver_threads,
              "what-if fan-out threads for serve --twin, 1-64 (the MILP solver "
              "is single-threaded; any count gives the same reports)")
      .AddInt("solver-max-nodes", &flags->solver_max_nodes,
              "branch-and-bound node budget per solve (0 = unbudgeted)")
      .AddInt("max-pending", &flags->max_pending,
              "pending jobs admitted into one cycle MILP (SLO-deadline order "
              "first; the rest waits)")
      .AddInt("start-slots", &flags->start_slots,
              "candidate deferred-start slots per (job, group) option")
      .AddBool("crosscheck", &flags->crosscheck,
               "debug: check every valuation kernel against the generic per-atom "
               "loop, every valuation-table cache hit against a fresh rebuild, "
               "and each root LP against a cold re-solve; abort on any "
               "divergence (decisions unchanged)")
      .AddBool("high-fidelity", &flags->high_fidelity, "use the noisy 'RC256' simulator mode")
      .AddDouble("fault-mttf", &flags->fault_mttf,
                 "mean time to failure per node in seconds (0 = no node churn)")
      .AddDouble("fault-mttr", &flags->fault_mttr, "mean time to repair per node in seconds")
      .AddDouble("fault-kill-prob", &flags->fault_kill_prob,
                 "probability a gang run is killed mid-flight by a task fault")
      .AddDouble("fault-straggler-prob", &flags->fault_straggler_prob,
                 "probability a run's duration is inflated by a straggler")
      .AddDouble("fault-straggler-factor", &flags->fault_straggler_factor,
                 "maximum straggler runtime inflation factor")
      .AddDouble("fault-stall-prob", &flags->fault_stall_prob,
                 "probability a scheduling cycle is stalled (scheduler hiccup)")
      .AddInt("fault-seed", &flags->fault_seed,
              "fault-injection RNG seed (independent of --seed)")
      .AddInt("checkpoint-every", &flags->checkpoint_every,
              "write <checkpoint-dir>/checkpoint_<cycle>.snap every N scheduling "
              "cycles (0 = off; the directory must exist)")
      .AddString("checkpoint-dir", &flags->checkpoint_dir, "where checkpoints are written")
      .AddInt("max-cycles", &flags->max_cycles,
              "stop each run after N scheduling cycles (0 = no limit; with "
              "checkpointing on, this emulates a kill at a known cycle)")
      .AddString("trace-out", &flags->trace_out,
                 "write a Chrome trace_event JSON here (load in chrome://tracing "
                 "or ui.perfetto.dev); enables span tracing")
      .AddString("trace-bin-out", &flags->trace_bin_out,
                 "write the binary span trace here (snapshot codec; the "
                 "deterministic sections are byte-identical across runs and "
                 "thread counts)")
      .AddString("obs-phase-csv", &flags->obs_phase_csv,
                 "write the per-cycle scheduler phase-latency CSV here; enables "
                 "the cycle profiler")
      .AddString("obs-decisions-csv", &flags->obs_decisions_csv,
                 "write the per-cycle decision log CSV here (the golden-trace "
                 "regression format)")
      .AddString("obs-metrics-out", &flags->obs_metrics_out,
                 "write a text dump of the metrics registry here")
      .AddInt("obs-ring-capacity", &flags->obs_ring_capacity,
              "span ring capacity per thread (oldest spans drop on overflow)");
}

namespace {

// The first flag outside the range its consumer TS_CHECKs, as an error
// message; empty when every flag is in range.
std::string OutOfRangeFlag(const ExperimentFlags& f) {
  const auto count = [](int64_t v) { return v >= 1 && v <= std::numeric_limits<int>::max(); };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto probability = [](double v) { return v >= 0.0 && v <= 1.0; };
  const auto factor = [](double v) { return std::isfinite(v) && v >= 1.0; };
  const struct {
    const char* flag;
    bool ok;
    std::string range;
  } checks[] = {
      {"groups", count(f.groups), ">= 1"},
      {"nodes-per-group", count(f.nodes_per_group), ">= 1"},
      {"start-slots", count(f.start_slots), ">= 1"},
      {"max-pending", count(f.max_pending), ">= 1"},
      {"solver-threads", f.solver_threads >= 1 && f.solver_threads <= kMaxSolverThreads,
       "in [1, " + std::to_string(kMaxSolverThreads) + "]"},
      {"hours", positive(f.hours), "finite and > 0"},
      {"load", positive(f.load), "finite and > 0"},
      {"cycle", positive(f.cycle), "finite and > 0"},
      {"fault-kill-prob", probability(f.fault_kill_prob), "in [0, 1]"},
      {"fault-straggler-prob", probability(f.fault_straggler_prob), "in [0, 1]"},
      {"fault-stall-prob", probability(f.fault_stall_prob), "in [0, 1]"},
      {"fault-straggler-factor", factor(f.fault_straggler_factor), "finite and >= 1"},
  };
  for (const auto& check : checks) {
    if (!check.ok) {
      return std::string("flag --") + check.flag + ": must be " + check.range;
    }
  }
  return "";
}

}  // namespace

bool BuildExperimentConfig(const ExperimentFlags& flags, ExperimentConfig* config,
                           std::string* error) {
  *config = ExperimentConfig();
  if (const std::string bad = OutOfRangeFlag(flags); !bad.empty()) {
    if (error != nullptr) {
      *error = bad;
    }
    return false;
  }
  config->cluster = ClusterConfig::Uniform(static_cast<int>(flags.groups),
                                           static_cast<int>(flags.nodes_per_group));
  if (!ParseEnvironmentName(flags.env_name, &config->workload.env)) {
    if (error != nullptr) {
      *error = "unknown --env '" + flags.env_name + "'";
    }
    return false;
  }
  config->workload.duration = Hours(flags.hours);
  config->workload.load = flags.load;
  config->workload.seed = static_cast<uint64_t>(flags.seed);
  config->sim.cycle_period = flags.cycle;
  config->sim.seed = static_cast<uint64_t>(flags.seed);
  config->sim.fidelity =
      flags.high_fidelity ? SimFidelity::kHighFidelity : SimFidelity::kIdeal;
  config->sim.faults.node_mttf = flags.fault_mttf;
  config->sim.faults.node_mttr = flags.fault_mttr;
  config->sim.faults.task_kill_prob = flags.fault_kill_prob;
  config->sim.faults.straggler_prob = flags.fault_straggler_prob;
  config->sim.faults.straggler_factor = flags.fault_straggler_factor;
  config->sim.faults.cycle_stall_prob = flags.fault_stall_prob;
  config->sim.faults.seed = static_cast<uint64_t>(flags.fault_seed);
  config->sim.checkpoint_every = flags.checkpoint_every;
  config->sim.checkpoint_dir = flags.checkpoint_dir;
  config->sim.max_cycles = flags.max_cycles;
  config->sched.cycle_period = flags.cycle;
  config->sched.solver_threads = static_cast<int>(flags.solver_threads);
  config->sched.solver_max_nodes = static_cast<int>(flags.solver_max_nodes);
  config->sched.max_pending_considered = static_cast<int>(flags.max_pending);
  config->sched.num_start_slots = static_cast<int>(flags.start_slots);
  config->sched.crosscheck = flags.crosscheck;
  config->obs.trace_json_out = flags.trace_out;
  config->obs.trace_bin_out = flags.trace_bin_out;
  config->obs.phase_csv_out = flags.obs_phase_csv;
  config->obs.decisions_csv_out = flags.obs_decisions_csv;
  config->obs.metrics_out = flags.obs_metrics_out;
  config->obs.ring_capacity = flags.obs_ring_capacity;
  return true;
}

bool ParseEnvironmentName(const std::string& name, EnvironmentKind* out) {
  if (name == "google") {
    *out = EnvironmentKind::kGoogle;
  } else if (name == "hedgefund") {
    *out = EnvironmentKind::kHedgeFund;
  } else if (name == "mustang") {
    *out = EnvironmentKind::kMustang;
  } else {
    return false;
  }
  return true;
}

bool ParseSystemName(const std::string& name, SystemKind* out) {
  for (SystemKind kind :
       {SystemKind::kThreeSigma, SystemKind::kThreeSigmaNoDist, SystemKind::kThreeSigmaNoOE,
        SystemKind::kThreeSigmaNoAdapt, SystemKind::kPointPerfEst, SystemKind::kPointRealEst,
        SystemKind::kPrio}) {
    if (name == SystemName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace threesigma
