// loadgen — RPC load generator and correctness checker for serve.
//
// Generates the same synthetic workload a batch experiment would run and
// submits it to a serve daemon over RPC, closed-loop (back-to-back) or
// open-loop (target submission rate), reporting RPC latency percentiles and
// retry counts. The choreography hooks drive the CI durability smoke:
//
//   --checkpoint-at=N  after N successful submissions, TriggerCheckpoint
//   --kill-after=N     after N submissions, immediate (non-drain) Shutdown
//   --verify           resubmit every token (idempotent dedupe) and check
//                      each maps to exactly one job id, all ids distinct
//   --drain            graceful Shutdown, then poll until the cluster
//                      reports drained and check no submission was lost
//   --whatif           after the submit loop, run a digital-twin what-if
//                      sweep on the server and print the advisor report
//                      (--whatif-scenarios/--whatif-horizon shape the sweep;
//                      --whatif-out also writes the report to a file so CI
//                      can byte-diff two runs)
//
//   ./build/examples/loadgen --unix-socket=/tmp/3sigma.sock --jobs=1000
//       --checkpoint-at=400 --kill-after=600
//   ./build/examples/loadgen --unix-socket=/tmp/3sigma.sock --jobs=1000
//       --verify --drain

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/core/config_flags.h"
#include "src/core/experiment.h"
#include "src/svc/client.h"
#include "src/svc/socket_transport.h"

using namespace threesigma;

namespace {

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentFlags flags;
  std::string unix_socket;
  std::string host = "127.0.0.1";
  int64_t tcp_port = -1;
  int64_t jobs = 100;
  std::string mode = "closed";
  double rate = 100.0;
  std::string token_prefix = "job";
  int64_t checkpoint_at = 0;
  int64_t kill_after = 0;
  bool verify = false;
  bool drain = false;
  double drain_wait = 120.0;
  double request_timeout = 10.0;
  bool whatif = false;
  std::string whatif_scenarios;
  int64_t whatif_horizon = 0;
  int64_t whatif_repeat = 1;
  bool whatif_live = false;
  std::string whatif_out;

  FlagParser parser(
      "loadgen — submit a generated workload to a serve daemon over RPC.\n"
      "The shared experiment flags must match the daemon's so the generated\n"
      "jobs fit its cluster.");
  RegisterExperimentFlags(parser, &flags);
  parser.AddString("unix-socket", &unix_socket, "connect to this Unix-domain socket path")
      .AddString("host", &host, "TCP host to connect to")
      .AddInt("tcp-port", &tcp_port, "TCP port to connect to")
      .AddInt("jobs", &jobs, "number of workload jobs to submit")
      .AddString("mode", &mode, "closed (back-to-back) | open (paced at --rate)")
      .AddDouble("rate", &rate, "open-loop target submissions per second")
      .AddString("token-prefix", &token_prefix, "idempotency token prefix")
      .AddInt("checkpoint-at", &checkpoint_at,
              "trigger a server checkpoint after this many successful "
              "submissions (0 = never)")
      .AddInt("kill-after", &kill_after,
              "send an immediate non-drain shutdown after this many "
              "submissions and exit (0 = never)")
      .AddBool("verify", &verify,
               "resubmit every token and check idempotent dedupe: one id per "
               "token, all ids distinct")
      .AddBool("drain", &drain,
               "finish with a graceful shutdown and wait for the drain, "
               "checking that no submission was lost")
      .AddDouble("drain-wait", &drain_wait, "max seconds to wait for the drain")
      .AddDouble("request-timeout", &request_timeout, "per-RPC receive timeout in seconds")
      .AddBool("whatif", &whatif,
               "run a what-if sweep after the submit loop and print the advisor "
               "report (server must run with --twin)")
      .AddString("whatif-scenarios", &whatif_scenarios,
                 "';'-separated scenario list for --whatif (empty = server default)")
      .AddInt("whatif-horizon", &whatif_horizon,
              "speculative cycles per scenario for --whatif (0 = server default)")
      .AddInt("whatif-repeat", &whatif_repeat,
              "issue the WhatIf RPC this many times (latency percentiles; the "
              "reports must all be byte-identical)")
      .AddBool("whatif-live", &whatif_live,
               "sweep without waiting for the service to go idle (exercises real "
               "speculative cycles; repeats are not compared)")
      .AddString("whatif-out", &whatif_out, "also write the what-if report to this file");
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
    std::cerr << error << "; loadgen checkpoints the server with --checkpoint-at\n";
    return 1;
  }
  if (unix_socket.empty() && tcp_port < 0) {
    std::cerr << "need --unix-socket or --tcp-port\n";
    return 1;
  }

  const auto connect = [&]() -> std::unique_ptr<svc::SocketClientChannel> {
    std::string connect_error;
    auto channel =
        unix_socket.empty()
            ? svc::SocketClientChannel::ConnectTcp(host, static_cast<int>(tcp_port),
                                                   &connect_error)
            : svc::SocketClientChannel::ConnectUnix(unix_socket, &connect_error);
    if (channel == nullptr) {
      std::cerr << "connect failed: " << connect_error << "\n";
    }
    return channel;
  };

  std::unique_ptr<svc::SocketClientChannel> channel = connect();
  if (channel == nullptr) {
    return 1;
  }
  svc::ClientOptions client_options;
  client_options.request_timeout_seconds = request_timeout;
  svc::Client client(channel.get(), client_options);
  // Keep the replacement channel alive across reconnects.
  std::unique_ptr<svc::SocketClientChannel> spare;
  client.SetReconnect([&]() -> svc::ClientChannel* {
    spare = connect();
    return spare.get();
  });

  GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  if (static_cast<int64_t>(workload.jobs.size()) < jobs) {
    std::cerr << "workload has only " << workload.jobs.size() << " jobs; lower --jobs or "
              << "raise --hours/--load\n";
    return 1;
  }

  const bool open_loop = mode == "open";
  const double gap_seconds = rate > 0.0 ? 1.0 / rate : 0.0;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(jobs));
  std::map<std::string, JobId> token_ids;
  int64_t submitted = 0;
  bool killed = false;
  const auto start = std::chrono::steady_clock::now();

  for (int64_t i = 0; i < jobs; ++i) {
    if (open_loop) {
      const double target = static_cast<double>(i) * gap_seconds;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (target > elapsed) {
        std::this_thread::sleep_for(std::chrono::duration<double>(target - elapsed));
      }
    }
    JobSpec spec = workload.jobs[static_cast<size_t>(i)];
    spec.id = 0;  // The server assigns ids; tokens identify our submissions.
    const std::string token = token_prefix + "-" + std::to_string(i);
    JobId assigned = 0;
    const auto rpc_start = std::chrono::steady_clock::now();
    if (!client.SubmitJob(spec, token, &assigned, &error)) {
      std::cerr << "submit " << token << " failed: " << error << "\n";
      return 1;
    }
    latencies.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - rpc_start).count());
    token_ids[token] = assigned;
    ++submitted;

    if (checkpoint_at > 0 && submitted == checkpoint_at) {
      std::string path;
      if (!client.TriggerCheckpoint(&path, &error)) {
        std::cerr << "checkpoint failed: " << error << "\n";
        return 1;
      }
      std::cout << "checkpointed " << submitted << " submissions to " << path << "\n";
    }
    if (kill_after > 0 && submitted == kill_after) {
      if (!client.Shutdown(/*drain=*/false, &error)) {
        std::cerr << "kill shutdown failed: " << error << "\n";
        return 1;
      }
      std::cout << "killed server after " << submitted << " submissions\n";
      killed = true;
      break;
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::sort(latencies.begin(), latencies.end());
  std::printf("submitted %lld jobs in %.2fs (%.0f/s), retries %lld\n",
              static_cast<long long>(submitted), wall,
              wall > 0.0 ? static_cast<double>(submitted) / wall : 0.0,
              static_cast<long long>(client.total_retries()));
  if (!latencies.empty()) {
    std::printf("submit latency: p50 %.0fus  p90 %.0fus  p99 %.0fus  max %.0fus\n",
                Percentile(latencies, 0.50) * 1e6, Percentile(latencies, 0.90) * 1e6,
                Percentile(latencies, 0.99) * 1e6, latencies.back() * 1e6);
  }
  if (killed) {
    return 0;
  }

  if (whatif) {
    if (!whatif_live) {
      // Park the service first: wait until every admitted job has played out
      // and the admission queue is empty. A parked simulation cannot advance
      // between requests, so repeated sweeps — and sweeps issued by separate
      // loadgen runs against the same daemon — fork identical state and must
      // produce byte-identical reports. --whatif-live skips the gate (the
      // sweep then forks mid-run state, which exercises real speculative
      // cycles but is not reproducible between requests).
      const auto idle_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(120);
      for (;;) {
        SimStateInfo state;
        uint64_t queue_depth = 0;
        if (!client.GetClusterState(&state, &queue_depth, &error)) {
          std::cerr << "cluster state failed: " << error << "\n";
          return 1;
        }
        if (state.pending_jobs == 0 && state.running_jobs == 0 && queue_depth == 0) {
          break;
        }
        if (std::chrono::steady_clock::now() >= idle_deadline) {
          std::cerr << "service never went idle before --whatif\n";
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    std::string report;
    std::vector<double> whatif_latencies;
    for (int64_t i = 0; i < std::max<int64_t>(whatif_repeat, 1); ++i) {
      std::string this_report;
      const auto rpc_start = std::chrono::steady_clock::now();
      if (!client.WhatIf(whatif_scenarios, whatif_horizon, &this_report, &error)) {
        std::cerr << "whatif failed: " << error << "\n";
        return 1;
      }
      whatif_latencies.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - rpc_start)
              .count());
      // The server is parked between sweeps (we are its only client), so
      // repeated sweeps fork the same state and must agree byte-for-byte.
      // Live sweeps fork a moving simulation, so no such guarantee holds.
      if (!whatif_live && i > 0 && this_report != report) {
        std::cerr << "whatif reports differ between repeats\n";
        return 1;
      }
      report = std::move(this_report);
    }
    std::sort(whatif_latencies.begin(), whatif_latencies.end());
    std::printf("whatif latency over %zu calls: p50 %.1fms  p90 %.1fms  max %.1fms\n",
                whatif_latencies.size(), Percentile(whatif_latencies, 0.50) * 1e3,
                Percentile(whatif_latencies, 0.90) * 1e3, whatif_latencies.back() * 1e3);
    std::cout << report;
    std::string status;
    if (!client.AdvisorStatus(&status, &error)) {
      std::cerr << "advisor status failed: " << error << "\n";
      return 1;
    }
    std::cout << status;
    if (!whatif_out.empty()) {
      std::ofstream out(whatif_out, std::ios::binary | std::ios::trunc);
      out << report;
      if (!out) {
        std::cerr << "cannot write " << whatif_out << "\n";
        return 1;
      }
    }
  }

  if (verify) {
    // Resubmitting every token must dedupe to the already-assigned id (or
    // assign a fresh one for tokens a pre-restore server lost), and distinct
    // tokens must never share an id.
    std::set<JobId> distinct;
    for (int64_t i = 0; i < jobs; ++i) {
      const std::string token = token_prefix + "-" + std::to_string(i);
      JobSpec spec = workload.jobs[static_cast<size_t>(i)];
      spec.id = 0;
      JobId assigned = 0;
      if (!client.SubmitJob(spec, token, &assigned, &error)) {
        std::cerr << "verify resubmit " << token << " failed: " << error << "\n";
        return 1;
      }
      auto it = token_ids.find(token);
      if (it != token_ids.end() && it->second != assigned) {
        std::cerr << "verify failed: token " << token << " mapped to id " << it->second
                  << " then " << assigned << "\n";
        return 1;
      }
      token_ids[token] = assigned;
      if (!distinct.insert(assigned).second) {
        std::cerr << "verify failed: job id " << assigned << " assigned to two tokens\n";
        return 1;
      }
    }
    std::cout << "verified " << distinct.size() << " tokens -> " << distinct.size()
              << " distinct job ids\n";
  }

  if (drain) {
    if (!client.Shutdown(/*drain=*/true, &error)) {
      std::cerr << "drain shutdown failed: " << error << "\n";
      return 1;
    }
    const auto drain_start = std::chrono::steady_clock::now();
    SimStateInfo state;
    bool drained = false;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() - drain_start)
               .count() < drain_wait) {
      uint64_t queue_depth = 0;
      if (!client.GetClusterState(&state, &queue_depth, &error)) {
        std::cerr << "cluster state during drain failed: " << error << "\n";
        return 1;
      }
      if (state.drained && queue_depth == 0) {
        drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!drained) {
      std::cerr << "drain did not finish within " << drain_wait << "s\n";
      return 1;
    }
    std::printf("drained: %lld jobs total, %lld completed, %lld abandoned, %llu cycles\n",
                static_cast<long long>(state.total_jobs),
                static_cast<long long>(state.completed_jobs),
                static_cast<long long>(state.abandoned_jobs),
                static_cast<unsigned long long>(state.cycles_completed));
    // Only meaningful when this invocation was the sole submitter: a
    // drain-only run (--jobs=0) against a shared daemon sees everyone's jobs.
    if (jobs > 0 && state.total_jobs != static_cast<int64_t>(token_ids.size())) {
      std::cerr << "verify failed: " << token_ids.size() << " tokens but "
                << state.total_jobs << " jobs in the simulation\n";
      return 1;
    }
    if (state.completed_jobs + state.abandoned_jobs != state.total_jobs) {
      std::cerr << "verify failed: " << state.pending_jobs << " pending / "
                << state.running_jobs << " running after drain\n";
      return 1;
    }
  }
  return 0;
}
