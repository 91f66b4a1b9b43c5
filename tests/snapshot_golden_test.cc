// Byte-layout golden for checkpoints and wire frames.
//
// The snapshot layouts are written once, as field walks shared by the
// writer and the reader, so a round-trip test cannot notice a layout that
// changed on both sides at once. This golden can: it pins, per section of a
// fixed small 3Sigma checkpoint (faults on, one solver thread, no time
// limit), the section version, payload size and FNV-1a payload hash, plus
// the exact bytes of one encoded request per wire verb and of one reply.
// The "timing" section holds wall-clock cycle timings and is left out.
//
// Regenerate after an INTENTIONAL layout change (which also bumps the
// section's version):
//
//   THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/snapshot_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"
#include "src/svc/wire.h"

namespace threesigma {
namespace {

constexpr uint64_t kCheckpointCycle = 12;

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(static_cast<uint8_t>(c)));
    out += buf;
  }
  return out;
}

std::string CheckpointBuffer() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(2, 16);
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Minutes(6.0);
  config.workload.load = 1.4;
  config.workload.seed = 7;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 7;
  config.sim.faults.node_mttf = 1500.0;
  config.sim.faults.node_mttr = 600.0;
  config.sim.faults.task_kill_prob = 0.05;
  config.sim.faults.seed = 1;
  config.sched.cycle_period = 10.0;
  config.sched.solver_threads = 1;
  config.sched.solver_time_limit_seconds = 0.0;

  obs::ResetAll();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  SystemInstance instance = MakeSystem(SystemKind::kThreeSigma, config.cluster, config.sched);
  for (const JobSpec& job : workload.pretrain) {
    instance.predictor->RecordCompletion(job.features, job.true_runtime);
  }
  Simulator sim(config.cluster, instance.scheduler.get(), workload.jobs, config.sim);
  while (sim.cycles_completed() < kCheckpointCycle) {
    EXPECT_TRUE(sim.Step());
  }
  std::string buffer = sim.SaveStateToBuffer();
  obs::ResetAll();
  return buffer;
}

std::vector<svc::Request> OneRequestPerVerb() {
  JobSpec job;
  job.id = 5;
  job.name = "golden-job";
  job.user = "golden-user";
  job.type = JobType::kSlo;
  job.submit_time = 12.5;
  job.true_runtime = 420.0;
  job.num_tasks = 3;
  job.deadline = 900.0;
  job.preferred_groups = {0, 2};
  job.utility = UtilityFunction::SloStepWithDecay(2.0, 900.0, 60.0);
  job.features = {"user=golden-user", "jobname=golden-job"};

  std::vector<svc::Request> requests;
  for (uint8_t v = static_cast<uint8_t>(svc::Verb::kSubmitJob);
       v <= static_cast<uint8_t>(svc::Verb::kAdvisorStatus); ++v) {
    svc::Request request;
    request.verb = static_cast<svc::Verb>(v);
    request.request_id = 1000 + v;
    request.token = "tok-golden";
    request.job = job;
    request.job_id = -17;
    request.drain = false;
    request.scenarios = "solver_threads=2";
    request.horizon = 25;
    requests.push_back(request);
  }
  return requests;
}

svc::Reply SampleReply() {
  svc::Reply reply;
  reply.code = svc::StatusCode::kRetryLater;
  reply.request_id = 99;
  reply.message = "admission queue full";
  reply.job_id = 17;
  reply.job.status = JobStatus::kRunning;
  reply.job.submit_time = 10.0;
  reply.job.start_time = 30.0;
  reply.job.finish_time = kNever;
  reply.job.group = 1;
  reply.job.preemptions = 2;
  reply.job.arrived = true;
  reply.cluster.now = 123.0;
  reply.cluster.cycles_completed = 12;
  reply.cluster.total_jobs = 40;
  reply.cluster.pending_jobs = 3;
  reply.cluster.running_jobs = 7;
  reply.cluster.completed_jobs = 30;
  reply.cluster.abandoned_jobs = -1;
  reply.cluster.total_nodes = 32;
  reply.cluster.available_nodes = 30;
  reply.cluster.free_nodes = 4;
  reply.cluster.drained = true;
  reply.queue_depth = 5;
  reply.text = "metrics body";
  return reply;
}

// kind,name,version,payload_bytes,fingerprint — the fingerprint is the
// FNV-1a payload hash for a section and the full hex bytes for a frame.
std::string GoldenCsv() {
  std::string csv = "kind,name,version,payload_bytes,fingerprint\n";
  std::vector<SnapshotSection> sections;
  std::string error;
  EXPECT_TRUE(ListSnapshotSections(CheckpointBuffer(), &sections, &error)) << error;
  for (const SnapshotSection& s : sections) {
    if (s.name == "timing") {
      continue;
    }
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(s.hash));
    csv += "section," + s.name + "," + std::to_string(s.version) + "," +
           std::to_string(s.payload_size) + "," + hash + "\n";
  }
  for (const svc::Request& request : OneRequestPerVerb()) {
    const std::string bytes = svc::EncodeRequest(request);
    csv += std::string("request,") + svc::VerbName(request.verb) + ",1," +
           std::to_string(bytes.size()) + "," + Hex(bytes) + "\n";
  }
  const std::string reply = svc::EncodeReply(SampleReply());
  csv += "reply,retry_later,1," + std::to_string(reply.size()) + "," + Hex(reply) + "\n";
  return csv;
}

TEST(SnapshotGoldenTest, SectionAndFrameBytesMatchGolden) {
  const std::string actual = GoldenCsv();
  const std::string path = std::string(GOLDEN_DIR) + "/snapshot_sections.csv";
  if (GetEnvInt("THREESIGMA_UPDATE_GOLDENS", 0) != 0) {
    std::string error;
    ASSERT_TRUE(WriteFileAtomic(path, actual, &error)) << error;
    std::cout << "updated golden " << path << "\n";
    return;
  }
  std::string expected;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &expected, &error))
      << "missing golden '" << path << "' — generate it with THREESIGMA_UPDATE_GOLDENS=1 ("
      << error << ")";
  EXPECT_EQ(expected, actual)
      << "a snapshot or wire layout changed; if intentional, bump the section version and "
         "regenerate with:\n  THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/snapshot_golden_test";
}

}  // namespace
}  // namespace threesigma
