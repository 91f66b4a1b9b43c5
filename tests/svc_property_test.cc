// Service-vs-batch equivalence: a workload fed through the RPC service layer
// (loopback transport, admission queue, batched injection) must produce a
// byte-identical per-cycle decision log to the batch simulator on the same
// jobs — whether the jobs arrive all upfront or trickle in between
// scheduling cycles.
//
// This is the service layer's core determinism claim: the transport, queue,
// and batching machinery may add latency but must never change a scheduling
// decision. The config mirrors tests/golden_trace_test.cc's BaseConfig so a
// drift here and a golden drift point at the same change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/transport.h"

namespace threesigma {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(2, 16);
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Minutes(6.0);
  config.workload.load = 1.4;
  config.workload.seed = 7;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 7;
  config.sched.cycle_period = 10.0;
  return config;
}

const std::string kCsvHeader =
    "cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n";

// The batch reference: identical to the golden-trace harness.
std::string BatchDecisionCsv(const ExperimentConfig& config) {
  obs::ResetAll();
  obs::Options options;
  options.decisions = true;
  obs::Configure(options);
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  (void)SimulateSystem(SystemKind::kThreeSigma, config, workload);
  const std::string csv = obs::DecisionLog::Global().ToCsvString();
  obs::ResetAll();
  return csv;
}

// The same workload through the service: pretrain identically, submit over
// the loopback client (sorted by submit time, matching the batch simulator's
// internal sort), drain, and collect the same decision log.
//
// `chunk_seconds` == 0 submits everything before the first cycle; > 0 submits
// submit-time windows of that width with a few scheduling cycles between
// chunks, proving mid-run injection batches don't perturb decisions either.
std::string ServiceDecisionCsv(const ExperimentConfig& config, double chunk_seconds) {
  obs::ResetAll();
  obs::Options obs_options;
  obs_options.decisions = true;
  obs::Configure(obs_options);

  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  for (const JobSpec& job : workload.pretrain) {
    instance.predictor->RecordCompletion(job.features, job.true_runtime);
  }

  std::vector<JobSpec> jobs = workload.jobs;
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.submit_time < b.submit_time; });

  svc::LoopbackTransport transport;
  svc::ServiceOptions service;
  service.admission_capacity = jobs.size() + 16;
  service.max_batch_per_cycle = jobs.size() + 16;
  service.drain_linger_seconds = 0.0;
  svc::Server server(config.cluster, instance.scheduler.get(), config.sim, service,
                     &transport);
  auto channel = transport.Connect();
  channel->SetPump([&server] { server.HandleReady(); });
  svc::ClientOptions client_options;
  client_options.sleep_on_backoff = false;
  svc::Client client(channel.get(), client_options);

  std::string error;
  size_t next = 0;
  while (next < jobs.size()) {
    const double window_end =
        chunk_seconds > 0.0
            ? (std::floor(jobs[next].submit_time / chunk_seconds) + 1.0) * chunk_seconds
            : std::numeric_limits<double>::infinity();
    for (; next < jobs.size() && jobs[next].submit_time < window_end; ++next) {
      JobId assigned = 0;
      if (!client.SubmitJob(jobs[next], "prop-" + std::to_string(next), &assigned, &error)) {
        ADD_FAILURE() << "submit failed: " << error;
        return "";
      }
      // Original ids are free in a fresh simulation, so the server honors
      // them — a prerequisite for matching the batch run exactly.
      if (assigned != jobs[next].id) {
        ADD_FAILURE() << "id " << jobs[next].id << " reassigned to " << assigned;
        return "";
      }
    }
    if (chunk_seconds > 0.0 && next < jobs.size()) {
      // Advance a few cycles, but never so far that the next chunk's
      // arrivals would land in the past (injection clamps submit times to
      // `now`, which would diverge from the batch arrival sequence).
      for (int step = 0; step < 3; ++step) {
        if (server.simulator().now() + 2.0 * config.sim.cycle_period >
            jobs[next].submit_time) {
          break;
        }
        if (!server.StepCycle()) {
          break;
        }
      }
    }
  }

  if (!client.Shutdown(/*drain=*/true, &error)) {
    ADD_FAILURE() << "drain shutdown failed: " << error;
    return "";
  }
  int guard = 0;
  while (server.PollOnce() && ++guard < 1000000) {
  }
  EXPECT_LT(guard, 1000000) << "service run never drained";
  EXPECT_TRUE(server.simulator().drained());

  const std::string csv = obs::DecisionLog::Global().ToCsvString();
  obs::ResetAll();
  return csv;
}

void ExpectNonTrivial(const std::string& csv) {
  ASSERT_GT(csv.size(), kCsvHeader.size()) << "decision log came back empty";
}

TEST(SvcPropertyTest, UpfrontSessionMatchesBatchSingleThread) {
  const ExperimentConfig config = BaseConfig();
  const std::string batch = BatchDecisionCsv(config);
  ExpectNonTrivial(batch);
  const std::string service = ServiceDecisionCsv(config, /*chunk_seconds=*/0.0);
  EXPECT_EQ(batch, service)
      << "service-fed decisions diverged from the batch run";
}

TEST(SvcPropertyTest, ChunkedSessionMatchesBatchSingleThread) {
  const ExperimentConfig config = BaseConfig();
  const std::string batch = BatchDecisionCsv(config);
  ExpectNonTrivial(batch);
  const std::string service = ServiceDecisionCsv(config, /*chunk_seconds=*/60.0);
  EXPECT_EQ(batch, service)
      << "mid-run injection batches changed scheduling decisions";
}

}  // namespace
}  // namespace threesigma
