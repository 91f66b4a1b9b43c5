// serve — the online scheduling daemon.
//
// Wraps a Table 1 system in the svc::Server and listens on a Unix-domain
// socket and/or a localhost TCP port. Clients (examples/loadgen.cpp, or any
// svc::Client) submit jobs online; the simulation advances as fast as events
// allow. The daemon checkpoints on demand (TriggerCheckpoint RPC) or
// periodically, and --restore-from restarts it — admission queue, token
// table, and simulation state included — from such a checkpoint.
//
//   ./build/examples/serve --unix-socket=/tmp/3sigma.sock
//   ./build/examples/serve --tcp-port=7433 --system=3Sigma
//       --svc-checkpoint=/tmp/svc.snap --svc-checkpoint-every=50
//   ./build/examples/serve --unix-socket=/tmp/3sigma.sock
//       --restore-from=/tmp/svc.snap

#include <cstdlib>
#include <iostream>
#include <memory>

#include "src/common/flags.h"
#include "src/core/config_flags.h"
#include "src/core/experiment.h"
#include "src/svc/server.h"
#include "src/svc/socket_transport.h"
#include "src/twin/twin.h"

using namespace threesigma;

namespace {

// THREESIGMA_TWIN_* environment fallbacks (CI scripts configure the twin
// without editing command lines); explicit --twin-* flags win.
void ApplyTwinEnv(bool* enable, std::string* scenarios, int64_t* horizon,
                  int64_t* advise_every, bool* auto_apply, double* min_gain) {
  if (const char* v = std::getenv("THREESIGMA_TWIN")) {
    *enable = std::string(v) == "1";
  }
  if (const char* v = std::getenv("THREESIGMA_TWIN_SCENARIOS")) {
    *scenarios = v;
  }
  if (const char* v = std::getenv("THREESIGMA_TWIN_HORIZON")) {
    *horizon = std::atoll(v);
  }
  if (const char* v = std::getenv("THREESIGMA_TWIN_ADVISE_EVERY")) {
    *advise_every = std::atoll(v);
  }
  if (const char* v = std::getenv("THREESIGMA_TWIN_AUTO_APPLY")) {
    *auto_apply = std::string(v) == "1";
  }
  if (const char* v = std::getenv("THREESIGMA_TWIN_MIN_GAIN")) {
    *min_gain = std::atof(v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentFlags flags;
  std::string system_name = "3Sigma";
  std::string unix_socket;
  int64_t tcp_port = -1;
  int64_t admission_capacity = 1024;
  int64_t max_batch = 256;
  double poll_timeout = 0.05;
  double idle_timeout = 0.0;
  std::string svc_checkpoint;
  int64_t svc_checkpoint_every = 0;
  std::string restore_from;
  bool pretrain = true;
  bool twin = false;
  std::string twin_scenarios;
  int64_t twin_horizon = 50;
  int64_t twin_advise_every = 0;
  bool twin_auto_apply = false;
  double twin_min_gain = 1e-9;
  ApplyTwinEnv(&twin, &twin_scenarios, &twin_horizon, &twin_advise_every, &twin_auto_apply,
               &twin_min_gain);

  FlagParser parser(
      "serve — run a scheduler as a long-lived service.\n"
      "Submissions arrive over RPC instead of a pre-generated workload; the\n"
      "shared experiment flags still shape the cluster, simulator, and\n"
      "predictor pre-training corpus.");
  RegisterExperimentFlags(parser, &flags);
  parser.AddString("system", &system_name, "Table 1 system to serve")
      .AddString("unix-socket", &unix_socket, "listen on this Unix-domain socket path")
      .AddInt("tcp-port", &tcp_port, "listen on this 127.0.0.1 TCP port (0 = ephemeral)")
      .AddInt("admission-capacity", &admission_capacity,
              "bounded admission queue size; a full queue answers RETRY_LATER")
      .AddInt("max-batch", &max_batch, "max submissions injected per service iteration")
      .AddDouble("poll-timeout", &poll_timeout, "transport poll timeout in seconds")
      .AddDouble("idle-timeout", &idle_timeout,
                 "drop client connections idle longer than this many seconds (0 = never)")
      .AddString("svc-checkpoint", &svc_checkpoint,
                 "service checkpoint file (TriggerCheckpoint RPC and periodic "
                 "checkpoints write here)")
      .AddInt("svc-checkpoint-every", &svc_checkpoint_every,
              "checkpoint every N completed scheduling cycles (0 = RPC-only)")
      .AddString("restore-from", &restore_from,
                 "restore the full service state from this checkpoint before "
                 "serving (must have been written by an identically configured "
                 "serve)")
      .AddBool("pretrain", &pretrain,
               "pre-train the predictor on the generated pretrain corpus")
      .AddBool("twin", &twin,
               "enable the digital-twin what-if engine (WhatIf/AdvisorStatus RPCs)")
      .AddString("twin-scenarios", &twin_scenarios,
                 "';'-separated scenario list for what-if sweeps (empty = built-in "
                 "default sweep)")
      .AddInt("twin-horizon", &twin_horizon, "speculative cycles per scenario fork")
      .AddInt("twin-advise-every", &twin_advise_every,
              "run an advisory sweep every N live cycles (0 = RPC-only)")
      .AddBool("twin-auto-apply", &twin_auto_apply,
               "let the advisor apply winning policy overrides to the live "
               "scheduler (opt-in; default off)")
      .AddDouble("twin-min-gain", &twin_min_gain,
                 "minimum projected-utility gain over baseline before the advisor "
                 "recommends/applies");
  if (!parser.Parse(argc, argv)) {
    return parser.exit_code();
  }

  ExperimentConfig config;
  std::string error;
  if (!BuildExperimentConfig(flags, &config, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  if (!RejectRunOnlyFlags(flags, &error)) {
    std::cerr << error << "; serve checkpoints with --svc-checkpoint and --svc-checkpoint-every\n";
    return 1;
  }
  SystemKind kind;
  if (!ParseSystemName(system_name, &kind)) {
    std::cerr << "unknown --system '" << system_name << "'\n";
    return 1;
  }
  if (unix_socket.empty() && tcp_port < 0) {
    std::cerr << "need --unix-socket and/or --tcp-port\n";
    return 1;
  }
  if (config.obs.any()) {
    obs::Configure(config.obs);
  }

  SystemInstance instance = MakeSystem(kind, config.cluster, config.sched);
  if (pretrain) {
    const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
    for (const JobSpec& job : workload.pretrain) {
      instance.predictor->RecordCompletion(job.features, job.true_runtime);
    }
  }

  svc::SocketServerOptions socket_options;
  socket_options.unix_path = unix_socket;
  socket_options.tcp_port = static_cast<int>(tcp_port);
  socket_options.idle_timeout_seconds = idle_timeout;
  svc::SocketServerTransport transport;
  if (!transport.Listen(socket_options, &error)) {
    std::cerr << "cannot listen: " << error << "\n";
    return 1;
  }

  svc::ServiceOptions service;
  service.admission_capacity = static_cast<size_t>(admission_capacity);
  service.max_batch_per_cycle = static_cast<size_t>(max_batch);
  service.poll_timeout_seconds = poll_timeout;
  service.checkpoint_path = svc_checkpoint;
  service.checkpoint_every_cycles = svc_checkpoint_every;

  svc::Server server(config.cluster, instance.scheduler.get(), config.sim, service,
                     &transport);

  std::unique_ptr<WhatIfEngine> whatif;
  if (twin) {
    auto* dist_sched = dynamic_cast<DistributionScheduler*>(instance.scheduler.get());
    if (dist_sched == nullptr) {
      std::cerr << "--twin requires a DistributionScheduler-family --system\n";
      return 1;
    }
    TwinOptions twin_options;
    twin_options.kind = kind;
    twin_options.horizon_cycles = static_cast<int>(twin_horizon);
    twin_options.auto_apply = twin_auto_apply;
    twin_options.min_gain = twin_min_gain;
    twin_options.advise_every = twin_advise_every;
    if (!twin_scenarios.empty() &&
        !ParseScenarioList(twin_scenarios, &twin_options.advisory_scenarios, &error)) {
      std::cerr << "bad --twin-scenarios: " << error << "\n";
      return 1;
    }
    whatif = std::make_unique<WhatIfEngine>(config.cluster, dist_sched, twin_options);
    server.AttachWhatIfEngine(whatif.get());
  }

  if (!restore_from.empty()) {
    if (!server.RestoreFromFile(restore_from, &error)) {
      std::cerr << "cannot restore from '" << restore_from << "': " << error << "\n";
      return 1;
    }
    std::cout << "restored from " << restore_from << " at cycle "
              << server.simulator().cycles_completed() << "\n";
  }

  // Scripts wait for this line before connecting.
  std::cout << "READY system=" << system_name;
  if (twin) {
    std::cout << " twin=1";
  }
  if (!unix_socket.empty()) {
    std::cout << " unix=" << unix_socket;
  }
  if (transport.tcp_port() >= 0) {
    std::cout << " tcp=" << transport.tcp_port();
  }
  std::cout << std::endl;

  server.Serve();

  const SimStateInfo state = server.simulator().StateNow();
  std::cout << "serve exiting: " << state.total_jobs << " jobs total, "
            << state.completed_jobs << " completed, " << state.abandoned_jobs
            << " abandoned, " << state.cycles_completed << " cycles, sim time "
            << state.now << "s\n";
  if (whatif != nullptr) {
    std::cout << whatif->AdvisorStatusText();
  }
  transport.Close();
  if (config.obs.any()) {
    std::string obs_error;
    if (!obs::Flush(&obs_error)) {
      std::cerr << "observability export failed: " << obs_error << "\n";
      return 1;
    }
  }
  return 0;
}
