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
#include <memory>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"
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

// A 3Sigma system pretrained on the workload's history, behind a loopback
// server whose admission queue and injection batches hold every job, and one
// client whose every RPC pumps the server.
struct LoopbackService {
  LoopbackService(const ExperimentConfig& config, const GeneratedWorkload& workload)
      : instance(MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched)),
        server(config.cluster, instance.scheduler.get(), config.sim,
               Options(workload.jobs.size()), &transport),
        channel(transport.Connect()),
        client(channel.get(), svc::ClientOptions{.sleep_on_backoff = false}) {
    for (const JobSpec& job : workload.pretrain) {
      instance.predictor->RecordCompletion(job.features, job.true_runtime);
    }
    channel->SetPump([this] { server.HandleReady(); });
  }

  static svc::ServiceOptions Options(size_t jobs) {
    svc::ServiceOptions service;
    service.admission_capacity = jobs + 16;
    service.max_batch_per_cycle = jobs + 16;
    service.drain_linger_seconds = 0.0;
    return service;
  }

  SystemInstance instance;
  svc::LoopbackTransport transport;
  svc::Server server;
  std::unique_ptr<svc::LoopbackTransport::Client> channel;
  svc::Client client;
};

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
  LoopbackService session(config, workload);
  svc::Server& server = session.server;
  svc::Client& client = session.client;

  std::vector<JobSpec> jobs = workload.jobs;
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.submit_time < b.submit_time; });

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

// A loopback session that submits every job upfront and steps `cycles`
// scheduling cycles, then checkpoints the whole service. The registry is
// reset first, so two calls start from the same counters.
std::string ServiceCheckpointAfter(const ExperimentConfig& config, int cycles) {
  obs::ResetAll();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  LoopbackService session(config, workload);
  std::string error;
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    JobId assigned = 0;
    if (!session.client.SubmitJob(workload.jobs[i], "ckpt-" + std::to_string(i), &assigned,
                                  &error)) {
      ADD_FAILURE() << "submit failed: " << error;
      return "";
    }
  }
  for (int c = 0; c < cycles; ++c) {
    session.server.HandleReady();
    if (!session.server.StepCycle()) {
      ADD_FAILURE() << "no cycle to step at cycle " << c;
      return "";
    }
  }
  std::string checkpoint = session.server.simulator().SaveStateToBuffer();
  obs::ResetAll();
  return checkpoint;
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

// Only the `timing` section may differ between two checkpoints of the same
// service session: RPC handling time, however long a loaded host makes it,
// must not reach any other section (the `obs` registry totals included).
TEST(SvcPropertyTest, ServiceCheckpointDeterministicOutsideTiming) {
  const ExperimentConfig config = BaseConfig();
  const std::string first = ServiceCheckpointAfter(config, /*cycles=*/10);
  const std::string second = ServiceCheckpointAfter(config, /*cycles=*/10);
  ASSERT_FALSE(first.empty());
  const std::vector<std::string> differing = DiffSnapshotSections(first, second, {"timing"});
  EXPECT_TRUE(differing.empty()) << "sections differ between identical sessions: "
                                 << differing.front();
}

}  // namespace
}  // namespace threesigma
