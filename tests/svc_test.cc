// Service-layer tests: wire codec, framing, loopback RPC semantics, client
// retry discipline, checkpoint/restore dedupe, and a socket end-to-end run.
//
// Everything except SocketEndToEnd runs over the deterministic loopback
// transport, with the client pump wired to Server::HandleReady so the tests
// control simulation stepping explicitly.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sched/prio_scheduler.h"
#include "src/snapshot/snapshot_io.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/socket_transport.h"
#include "src/svc/transport.h"
#include "src/svc/wire.h"
#include "src/twin/twin.h"

namespace threesigma::svc {
namespace {

JobSpec MakeJob(JobId id, double submit_time = 0.0, int num_tasks = 1,
                double runtime = 60.0) {
  JobSpec spec;
  spec.id = id;
  spec.name = "svc-test-job";
  spec.user = "tester";
  spec.submit_time = submit_time;
  spec.true_runtime = runtime;
  spec.num_tasks = num_tasks;
  spec.features = {"user=tester", "jobname=svc-test-job"};
  return spec;
}

// --- Wire codec --------------------------------------------------------------

TEST(WireTest, RequestRoundTripAllVerbs) {
  for (const Verb verb :
       {Verb::kSubmitJob, Verb::kJobStatus, Verb::kCancelJob, Verb::kClusterState,
        Verb::kMetricsDump, Verb::kTriggerCheckpoint, Verb::kShutdown}) {
    Request request;
    request.verb = verb;
    request.request_id = 77;
    request.token = "tok-1";
    request.job = MakeJob(5, 12.5, 3, 420.0);
    request.job.type = JobType::kSlo;
    request.job.deadline = 900.0;
    request.job.preferred_groups = {0, 2};
    request.job_id = 5;
    request.drain = false;

    Request decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &decoded, &error))
        << VerbName(verb) << ": " << error;
    EXPECT_EQ(decoded.verb, verb);
    EXPECT_EQ(decoded.request_id, 77u);
    if (verb == Verb::kSubmitJob) {
      EXPECT_EQ(decoded.token, "tok-1");
      EXPECT_EQ(decoded.job.id, 5);
      EXPECT_EQ(decoded.job.name, "svc-test-job");
      EXPECT_EQ(decoded.job.user, "tester");
      EXPECT_EQ(decoded.job.type, JobType::kSlo);
      EXPECT_DOUBLE_EQ(decoded.job.submit_time, 12.5);
      EXPECT_DOUBLE_EQ(decoded.job.true_runtime, 420.0);
      EXPECT_EQ(decoded.job.num_tasks, 3);
      EXPECT_DOUBLE_EQ(decoded.job.deadline, 900.0);
      EXPECT_EQ(decoded.job.preferred_groups, (std::vector<int>{0, 2}));
      EXPECT_EQ(decoded.job.features, request.job.features);
    }
    if (verb == Verb::kJobStatus || verb == Verb::kCancelJob) {
      EXPECT_EQ(decoded.job_id, 5);
    }
    if (verb == Verb::kShutdown) {
      EXPECT_FALSE(decoded.drain);
    }
  }
}

TEST(WireTest, ReplyRoundTrip) {
  Reply reply;
  reply.code = StatusCode::kRetryLater;
  reply.request_id = 99;
  reply.message = "admission queue full";
  reply.job_id = 17;
  reply.job.status = JobStatus::kRunning;
  reply.job.submit_time = 10.0;
  reply.job.start_time = 30.0;
  reply.job.group = 1;
  reply.job.preemptions = 2;
  reply.job.arrived = true;
  reply.cluster.now = 123.0;
  reply.cluster.cycles_completed = 12;
  reply.cluster.total_jobs = 40;
  reply.cluster.pending_jobs = 3;
  reply.cluster.running_jobs = 7;
  reply.cluster.completed_jobs = 30;
  reply.cluster.total_nodes = 32;
  reply.cluster.free_nodes = 4;
  reply.cluster.drained = false;
  reply.queue_depth = 5;
  reply.text = "metrics body";

  Reply decoded;
  std::string error;
  ASSERT_TRUE(DecodeReply(EncodeReply(reply), &decoded, &error)) << error;
  EXPECT_EQ(decoded.code, StatusCode::kRetryLater);
  EXPECT_EQ(decoded.request_id, 99u);
  EXPECT_EQ(decoded.message, "admission queue full");
  EXPECT_EQ(decoded.job_id, 17);
  EXPECT_EQ(decoded.job.status, JobStatus::kRunning);
  EXPECT_DOUBLE_EQ(decoded.job.submit_time, 10.0);
  EXPECT_DOUBLE_EQ(decoded.job.start_time, 30.0);
  EXPECT_EQ(decoded.job.group, 1);
  EXPECT_EQ(decoded.job.preemptions, 2);
  EXPECT_TRUE(decoded.job.arrived);
  EXPECT_DOUBLE_EQ(decoded.cluster.now, 123.0);
  EXPECT_EQ(decoded.cluster.cycles_completed, 12u);
  EXPECT_EQ(decoded.cluster.total_jobs, 40);
  EXPECT_EQ(decoded.cluster.pending_jobs, 3);
  EXPECT_EQ(decoded.cluster.running_jobs, 7);
  EXPECT_EQ(decoded.cluster.completed_jobs, 30);
  EXPECT_EQ(decoded.cluster.total_nodes, 32);
  EXPECT_EQ(decoded.cluster.free_nodes, 4);
  EXPECT_FALSE(decoded.cluster.drained);
  EXPECT_EQ(decoded.queue_depth, 5u);
  EXPECT_EQ(decoded.text, "metrics body");
}

TEST(WireTest, TruncatedPayloadRejected) {
  Request request;
  request.verb = Verb::kSubmitJob;
  request.request_id = 1;
  request.token = "tok";
  request.job = MakeJob(9);
  const std::string payload = EncodeRequest(request);
  for (size_t len = 0; len < payload.size(); ++len) {
    Request decoded;
    std::string error;
    EXPECT_FALSE(DecodeRequest(payload.substr(0, len), &decoded, &error))
        << "accepted a " << len << "-byte truncation of " << payload.size() << " bytes";
  }
}

TEST(WireTest, BitFlipsRejected) {
  Request request;
  request.verb = Verb::kSubmitJob;
  request.request_id = 2;
  request.token = "tok-corrupt";
  request.job = MakeJob(11, 3.0, 2);
  const std::string payload = EncodeRequest(request);
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<size_t> pos(0, payload.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int i = 0; i < 256; ++i) {
    std::string corrupt = payload;
    corrupt[pos(rng)] = static_cast<char>(
        static_cast<unsigned char>(corrupt[pos(rng)]) ^ (1u << bit(rng)));
    if (corrupt == payload) {
      continue;  // Flipped a bit at one position after reading another.
    }
    Request decoded;
    std::string error;
    EXPECT_FALSE(DecodeRequest(corrupt, &decoded, &error))
        << "accepted a corrupted payload on trial " << i;
  }
}

TEST(WireTest, RandomBytesRejected) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 512);
  for (int i = 0; i < 256; ++i) {
    std::string junk(len(rng), '\0');
    for (char& c : junk) {
      c = static_cast<char>(byte(rng));
    }
    Request request;
    Reply reply;
    std::string error;
    EXPECT_FALSE(DecodeRequest(junk, &request, &error));
    EXPECT_FALSE(DecodeReply(junk, &reply, &error));
  }
}

TEST(WireTest, UnknownVerbAndStatusRejected) {
  Request request;
  request.verb = static_cast<Verb>(99);
  Request decoded_request;
  std::string error;
  EXPECT_FALSE(DecodeRequest(EncodeRequest(request), &decoded_request, &error));

  Reply reply;
  reply.code = static_cast<StatusCode>(200);
  Reply decoded_reply;
  EXPECT_FALSE(DecodeReply(EncodeReply(reply), &decoded_reply, &error));
}

// --- Framing -----------------------------------------------------------------

TEST(FramingTest, RoundTripMultipleFrames) {
  std::string buffer;
  AppendFrame(&buffer, "alpha");
  AppendFrame(&buffer, "bee");
  AppendFrame(&buffer, std::string(1000, 'x'));
  size_t offset = 0;
  std::string payload;
  std::string error;
  ASSERT_EQ(ExtractFrame(buffer, &offset, &payload, kDefaultMaxFrameBytes, &error),
            FrameResult::kFrame);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(ExtractFrame(buffer, &offset, &payload, kDefaultMaxFrameBytes, &error),
            FrameResult::kFrame);
  EXPECT_EQ(payload, "bee");
  ASSERT_EQ(ExtractFrame(buffer, &offset, &payload, kDefaultMaxFrameBytes, &error),
            FrameResult::kFrame);
  EXPECT_EQ(payload, std::string(1000, 'x'));
  EXPECT_EQ(ExtractFrame(buffer, &offset, &payload, kDefaultMaxFrameBytes, &error),
            FrameResult::kNeedMore);
  EXPECT_EQ(offset, buffer.size());
}

TEST(FramingTest, PartialFrameNeedsMore) {
  std::string buffer;
  AppendFrame(&buffer, "payload");
  std::string payload;
  std::string error;
  for (size_t len = 0; len < buffer.size(); ++len) {
    const std::string prefix = buffer.substr(0, len);
    size_t offset = 0;
    EXPECT_EQ(ExtractFrame(prefix, &offset, &payload, kDefaultMaxFrameBytes, &error),
              FrameResult::kNeedMore);
    EXPECT_EQ(offset, 0u) << "kNeedMore must not consume bytes";
  }
}

TEST(FramingTest, ZeroAndOversizedLengthsAreErrors) {
  // Zero-length frame.
  std::string zero(4, '\0');
  size_t offset = 0;
  std::string payload;
  std::string error;
  EXPECT_EQ(ExtractFrame(zero, &offset, &payload, kDefaultMaxFrameBytes, &error),
            FrameResult::kError);

  // Length prefix beyond the cap must fail immediately (no buffering 4 GiB).
  std::string huge;
  AppendFrame(&huge, "0123456789");
  offset = 0;
  EXPECT_EQ(ExtractFrame(huge, &offset, &payload, /*max_frame_bytes=*/4, &error),
            FrameResult::kError);
}

// --- Client backoff ----------------------------------------------------------

TEST(BackoffTest, CappedExponential) {
  ClientOptions options;
  options.backoff_initial_seconds = 0.05;
  options.backoff_multiplier = 2.0;
  options.backoff_cap_seconds = 2.0;
  EXPECT_DOUBLE_EQ(BackoffDelay(0, options), 0.0);
  EXPECT_DOUBLE_EQ(BackoffDelay(1, options), 0.05);
  EXPECT_DOUBLE_EQ(BackoffDelay(2, options), 0.10);
  EXPECT_DOUBLE_EQ(BackoffDelay(3, options), 0.20);
  EXPECT_DOUBLE_EQ(BackoffDelay(4, options), 0.40);
  EXPECT_DOUBLE_EQ(BackoffDelay(10, options), 2.0);   // Capped.
  EXPECT_DOUBLE_EQ(BackoffDelay(100, options), 2.0);  // Still capped, no overflow.
}

// --- Loopback service --------------------------------------------------------

// One cluster, one Prio scheduler, one server on a loopback transport, one
// client whose pump is the server's RPC half.
class LoopbackServiceTest : public ::testing::Test {
 protected:
  void Start(ServiceOptions options) {
    options.drain_linger_seconds = 0.0;  // Tests close sessions explicitly.
    scheduler_ = std::make_unique<PrioScheduler>(cluster_);
    server_ = std::make_unique<Server>(cluster_, scheduler_.get(), SimOptions{}, options,
                                       &transport_);
    channel_ = transport_.Connect();
    channel_->SetPump([this] { server_->HandleReady(); });
    ClientOptions client_options;
    client_options.sleep_on_backoff = false;
    client_ = std::make_unique<Client>(channel_.get(), client_options);
  }

  // Sends a raw request and returns the decoded reply (no client retry
  // logic), for tests that need to observe non-kOk codes directly.
  Reply RawCall(Request request) {
    static uint64_t next_id = 1000;
    request.request_id = ++next_id;
    std::string error;
    EXPECT_TRUE(channel_->SendFrame(EncodeRequest(request), &error)) << error;
    std::string payload;
    EXPECT_TRUE(channel_->RecvFrame(&payload, 1.0, &error)) << error;
    Reply reply;
    EXPECT_TRUE(DecodeReply(payload, &reply, &error)) << error;
    EXPECT_EQ(reply.request_id, request.request_id);
    return reply;
  }

  void ExpectSubmitRejected(const JobSpec& job, StatusCode code, const std::string& from = "",
                            const std::string& to = "");

  // Steps the simulation until it pauses (no more steppable cycles).
  void StepUntilIdle() {
    int guard = 0;
    while (server_->StepCycle() && ++guard < 100000) {
    }
    ASSERT_LT(guard, 100000) << "simulation never went idle";
  }

  // Drives full service iterations until the server finishes.
  void RunToStop() {
    int guard = 0;
    while (server_->PollOnce() && ++guard < 100000) {
    }
    ASSERT_LT(guard, 100000) << "server never stopped";
  }

  ClusterConfig cluster_ = ClusterConfig::Uniform(2, 8);
  LoopbackTransport transport_;
  std::unique_ptr<PrioScheduler> scheduler_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<LoopbackTransport::Client> channel_;
  std::unique_ptr<Client> client_;
};

TEST_F(LoopbackServiceTest, SubmitRunsToCompletion) {
  Start(ServiceOptions{});
  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "job-a", &id, &error)) << error;
  EXPECT_GT(id, 0);

  JobStatusInfo info;
  ASSERT_TRUE(client_->QueryJob(id, &info, &error)) << error;
  EXPECT_EQ(info.status, JobStatus::kPending);

  StepUntilIdle();
  ASSERT_TRUE(client_->QueryJob(id, &info, &error)) << error;
  EXPECT_EQ(info.status, JobStatus::kCompleted);
  EXPECT_GE(info.finish_time, 60.0);

  ASSERT_TRUE(client_->Shutdown(/*drain=*/true, &error)) << error;
  RunToStop();
  EXPECT_TRUE(server_->simulator().drained());
}

TEST_F(LoopbackServiceTest, TokenDedupeIsIdempotent) {
  Start(ServiceOptions{});
  JobId first = 0;
  JobId second = 0;
  JobId other = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "same-token", &first, &error)) << error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "same-token", &second, &error)) << error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "other-token", &other, &error)) << error;
  EXPECT_EQ(first, second) << "resubmitting a token must return the original id";
  EXPECT_NE(first, other);
  SimStateInfo state;
  ASSERT_TRUE(client_->GetClusterState(&state, nullptr, &error)) << error;
  EXPECT_EQ(state.total_jobs, 2) << "the duplicate must not be admitted twice";
}

TEST_F(LoopbackServiceTest, ClientSuppliedIdsHonoredAndCollisionsReassigned) {
  Start(ServiceOptions{});
  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(42), "t-1", &id, &error)) << error;
  EXPECT_EQ(id, 42);
  ASSERT_TRUE(client_->SubmitJob(MakeJob(42), "t-2", &id, &error)) << error;
  EXPECT_NE(id, 42) << "a colliding id must be reassigned, not rejected";
}

TEST_F(LoopbackServiceTest, OversizedGangRejected) {
  Start(ServiceOptions{});
  Request request;
  request.verb = Verb::kSubmitJob;
  request.job = MakeJob(0, 0.0, /*num_tasks=*/9);  // Groups hold 8 nodes.
  EXPECT_EQ(RawCall(request).code, StatusCode::kInvalidArgument);
  request.job.num_tasks = 0;
  EXPECT_EQ(RawCall(request).code, StatusCode::kInvalidArgument);
}

// The bytes of `payload` with the one occurrence of `from` replaced by the
// same-length `to`, CRC re-sealed: submits values no JobSpec can hold.
std::string Patched(std::string payload, const std::string& from, const std::string& to) {
  EXPECT_EQ(from.size(), to.size());
  const size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(at, payload.rfind(from)) << "patch target is not unique";
  payload.replace(at, from.size(), to);
  const uint32_t crc = Crc32(payload.data(), payload.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    payload[payload.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return payload;
}

std::string DoubleBytes(double v) {
  std::string bytes(sizeof(v), '\0');
  std::memcpy(bytes.data(), &v, sizeof(v));
  return bytes;
}

// Submits `job` (optionally byte-patched), expects `code`, then runs the
// simulation dry: a rejected spec must leave nothing behind that aborts.
void LoopbackServiceTest::ExpectSubmitRejected(const JobSpec& job, StatusCode code,
                                               const std::string& from,
                                               const std::string& to) {
  Start(ServiceOptions{});
  Request request;
  request.verb = Verb::kSubmitJob;
  request.request_id = 7;
  request.job = job;
  std::string payload = EncodeRequest(request);
  if (!from.empty()) {
    payload = Patched(payload, from, to);
  }
  std::string error;
  ASSERT_TRUE(channel_->SendFrame(payload, &error)) << error;
  std::string reply_payload;
  ASSERT_TRUE(channel_->RecvFrame(&reply_payload, 1.0, &error)) << error;
  Reply reply;
  ASSERT_TRUE(DecodeReply(reply_payload, &reply, &error)) << error;
  EXPECT_EQ(reply.code, code) << StatusCodeName(reply.code) << ": " << reply.message;
  StepUntilIdle();
  EXPECT_EQ(server_->simulator().StateNow().total_jobs, 0);
}

TEST_F(LoopbackServiceTest, NanRuntimeRejected) {
  JobSpec job = MakeJob(0);
  job.true_runtime = std::numeric_limits<double>::quiet_NaN();
  ExpectSubmitRejected(job, StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, NegativeRuntimeRejected) {
  ExpectSubmitRejected(MakeJob(0, 0.0, 1, -50.0), StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, ZeroRuntimeRejected) {
  ExpectSubmitRejected(MakeJob(0, 0.0, 1, 0.0), StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, InfiniteSubmitTimeRejected) {
  ExpectSubmitRejected(MakeJob(0, std::numeric_limits<double>::infinity()),
                       StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, NegativeSubmitTimeRejected) {
  ExpectSubmitRejected(MakeJob(0, -5.0), StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, NanDeadlineRejected) {
  JobSpec job = MakeJob(0);
  job.type = JobType::kSlo;
  job.deadline = std::numeric_limits<double>::quiet_NaN();
  ExpectSubmitRejected(job, StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, NonFiniteSlowdownRejected) {
  JobSpec job = MakeJob(0);
  job.nonpreferred_slowdown = std::numeric_limits<double>::infinity();
  ExpectSubmitRejected(job, StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, NonPositiveUtilityValueRejected) {
  JobSpec job = MakeJob(0);
  job.utility = UtilityFunction::BestEffortLinear(1.25, 0.0, 3600.0);
  ExpectSubmitRejected(job, StatusCode::kInvalidArgument, DoubleBytes(1.25), DoubleBytes(0.0));
}

TEST_F(LoopbackServiceTest, NonPositiveUtilityWindowRejected) {
  JobSpec job = MakeJob(0);
  job.utility = UtilityFunction::BestEffortLinear(1.0, 0.0, 1234.5);
  ExpectSubmitRejected(job, StatusCode::kInvalidArgument, DoubleBytes(1234.5),
                       DoubleBytes(-1.0));
}

TEST_F(LoopbackServiceTest, OutOfRangeJobTypeByteIsMalformed) {
  // The type byte directly follows the "tester" user string.
  ExpectSubmitRejected(MakeJob(0), StatusCode::kMalformed, std::string("\x06tester\x01"),
                       std::string("\x06tester\x07"));
}

TEST_F(LoopbackServiceTest, NumTasksBeyondIntIsMalformed) {
  // Zigzag varints of INT_MAX and of 2^32 + 1 are both five bytes long.
  ExpectSubmitRejected(MakeJob(0, 0.0, std::numeric_limits<int>::max()),
                       StatusCode::kMalformed, std::string("\xfe\xff\xff\xff\x0f"),
                       std::string("\x82\x80\x80\x80\x20"));
}

TEST_F(LoopbackServiceTest, FullQueueAnswersRetryLater) {
  ServiceOptions options;
  options.admission_capacity = 2;
  options.max_batch_per_cycle = 0;  // Nothing ever leaves the queue.
  Start(options);

  Request request;
  request.verb = Verb::kSubmitJob;
  request.job = MakeJob(0);
  EXPECT_EQ(RawCall(request).code, StatusCode::kOk);
  EXPECT_EQ(RawCall(request).code, StatusCode::kOk);
  EXPECT_EQ(RawCall(request).code, StatusCode::kRetryLater)
      << "a full admission queue must push back, not drop";
  EXPECT_EQ(server_->queue_depth(), 2u);

  uint64_t queue_depth = 0;
  std::string error;
  ASSERT_TRUE(client_->GetClusterState(nullptr, &queue_depth, &error)) << error;
  EXPECT_EQ(queue_depth, 2u);
}

TEST_F(LoopbackServiceTest, ClientRetriesOnBackpressureThenGivesUp) {
  ServiceOptions options;
  options.admission_capacity = 1;
  options.max_batch_per_cycle = 0;
  Start(options);

  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "fits", &id, &error)) << error;

  // The queue never drains, so every attempt sees kRetryLater and the client
  // exhausts its budget.
  ClientOptions tight;
  tight.sleep_on_backoff = false;
  tight.max_attempts = 3;
  Client impatient(channel_.get(), tight);
  EXPECT_FALSE(impatient.SubmitJob(MakeJob(0), "never-fits", &id, &error));
  EXPECT_NE(error.find("retry_later"), std::string::npos) << error;
  EXPECT_EQ(impatient.total_retries(), 2) << "3 attempts = first try + 2 retries";

  // Once the queue drains, the same token goes through.
  ServiceOptions unblocked;
  server_.reset();  // Scheduler must outlive the server; replace both in order.
  scheduler_ = std::make_unique<PrioScheduler>(cluster_);
  server_ = std::make_unique<Server>(cluster_, scheduler_.get(), SimOptions{}, unblocked,
                                     &transport_);
  channel_->SetPump([this] { server_->HandleReady(); });
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "never-fits", &id, &error)) << error;
}

TEST_F(LoopbackServiceTest, CancelSemantics) {
  ServiceOptions options;
  options.max_batch_per_cycle = 0;  // Keep submissions in the admission queue.
  Start(options);

  JobId queued = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "queued", &queued, &error)) << error;

  // Cancelling a queued job withdraws it before the simulation sees it; the
  // cancel is idempotent and the job reports kAbandoned afterwards.
  ASSERT_TRUE(client_->CancelJob(queued, &error)) << error;
  ASSERT_TRUE(client_->CancelJob(queued, &error)) << error;
  JobStatusInfo info;
  ASSERT_TRUE(client_->QueryJob(queued, &info, &error)) << error;
  EXPECT_EQ(info.status, JobStatus::kAbandoned);
  SimStateInfo state;
  ASSERT_TRUE(client_->GetClusterState(&state, nullptr, &error)) << error;
  EXPECT_EQ(state.total_jobs, 0) << "a withdrawn job must never reach the simulation";

  // Unknown ids are kNotFound.
  Request request;
  request.verb = Verb::kCancelJob;
  request.job_id = 9999;
  EXPECT_EQ(RawCall(request).code, StatusCode::kNotFound);
}

TEST_F(LoopbackServiceTest, CompletedJobIsNotCancellable) {
  Start(ServiceOptions{});
  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "done", &id, &error)) << error;
  StepUntilIdle();
  JobStatusInfo info;
  ASSERT_TRUE(client_->QueryJob(id, &info, &error)) << error;
  ASSERT_EQ(info.status, JobStatus::kCompleted);

  Request request;
  request.verb = Verb::kCancelJob;
  request.job_id = id;
  EXPECT_EQ(RawCall(request).code, StatusCode::kInvalidArgument);
}

TEST_F(LoopbackServiceTest, MalformedFrameGetsMalformedReply) {
  Start(ServiceOptions{});
  std::string error;
  ASSERT_TRUE(channel_->SendFrame("this is not a snapshot container", &error)) << error;
  std::string payload;
  ASSERT_TRUE(channel_->RecvFrame(&payload, 1.0, &error)) << error;
  Reply reply;
  ASSERT_TRUE(DecodeReply(payload, &reply, &error)) << error;
  EXPECT_EQ(reply.code, StatusCode::kMalformed);
  EXPECT_FALSE(reply.message.empty());

  // The connection survives: the next well-formed RPC still works.
  SimStateInfo state;
  ASSERT_TRUE(client_->GetClusterState(&state, nullptr, &error)) << error;
}

TEST_F(LoopbackServiceTest, MetricsDumpListsServiceSeries) {
  Start(ServiceOptions{});
  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "m", &id, &error)) << error;
  std::string text;
  ASSERT_TRUE(client_->DumpMetrics(&text, &error)) << error;
  EXPECT_NE(text.find(std::string("svc.rpc.") + VerbName(Verb::kSubmitJob)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("svc.admitted"), std::string::npos) << text;
}

TEST_F(LoopbackServiceTest, DrainRejectsNewWorkAndFinishesAdmitted) {
  Start(ServiceOptions{});
  std::string error;
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    JobId id = 0;
    ASSERT_TRUE(
        client_->SubmitJob(MakeJob(0, 0.0, 1, 30.0 + i), "d-" + std::to_string(i), &id, &error))
        << error;
    ids.push_back(id);
  }
  ASSERT_TRUE(client_->Shutdown(/*drain=*/true, &error)) << error;

  // Submissions after the drain begins are refused, not queued.
  Request request;
  request.verb = Verb::kSubmitJob;
  request.job = MakeJob(0);
  request.token = "late";
  EXPECT_EQ(RawCall(request).code, StatusCode::kShuttingDown);

  RunToStop();
  EXPECT_TRUE(server_->stopped());
  const SimStateInfo state = server_->simulator().StateNow();
  EXPECT_TRUE(state.drained);
  EXPECT_EQ(state.total_jobs, 5);
  EXPECT_EQ(state.completed_jobs + state.abandoned_jobs, state.total_jobs)
      << "a drain must play out every admitted job";
}

TEST_F(LoopbackServiceTest, ImmediateShutdownStops) {
  Start(ServiceOptions{});
  JobId id = 0;
  std::string error;
  ASSERT_TRUE(client_->SubmitJob(MakeJob(0), "x", &id, &error)) << error;
  ASSERT_TRUE(client_->Shutdown(/*drain=*/false, &error)) << error;
  EXPECT_TRUE(server_->stopped());
  EXPECT_FALSE(server_->PollOnce());
}

TEST_F(LoopbackServiceTest, CheckpointRestoreKeepsTokenTable) {
  const std::string path = ::testing::TempDir() + "/svc_test_checkpoint.snap";
  ServiceOptions options;
  options.checkpoint_path = path;
  Start(options);

  std::map<std::string, JobId> assigned;
  std::string error;
  for (int i = 0; i < 6; ++i) {
    const std::string token = "ckpt-" + std::to_string(i);
    JobId id = 0;
    ASSERT_TRUE(client_->SubmitJob(MakeJob(0, static_cast<double>(i)), token, &id, &error))
        << error;
    assigned[token] = id;
  }
  for (int i = 0; i < 3; ++i) {
    server_->StepCycle();
  }
  std::string written;
  ASSERT_TRUE(client_->TriggerCheckpoint(&written, &error)) << error;
  EXPECT_EQ(written, path);

  // A fresh server restored from the snapshot dedupes all six tokens to the
  // same ids and keeps assigning fresh distinct ids afterwards.
  PrioScheduler restored_scheduler(cluster_);
  LoopbackTransport restored_transport;
  Server restored(cluster_, &restored_scheduler, SimOptions{}, options,
                  &restored_transport);
  ASSERT_TRUE(restored.RestoreFromFile(path, &error)) << error;
  auto restored_channel = restored_transport.Connect();
  restored_channel->SetPump([&restored] { restored.HandleReady(); });
  ClientOptions client_options;
  client_options.sleep_on_backoff = false;
  Client restored_client(restored_channel.get(), client_options);

  std::set<JobId> distinct;
  for (const auto& [token, id] : assigned) {
    JobId again = 0;
    ASSERT_TRUE(restored_client.SubmitJob(MakeJob(0), token, &again, &error)) << error;
    EXPECT_EQ(again, id) << "token " << token << " lost its id across restore";
    EXPECT_TRUE(distinct.insert(again).second);
  }
  JobId fresh = 0;
  ASSERT_TRUE(restored_client.SubmitJob(MakeJob(0), "ckpt-new", &fresh, &error)) << error;
  EXPECT_TRUE(distinct.insert(fresh).second) << "fresh submissions must not reuse ids";

  ASSERT_TRUE(restored_client.Shutdown(/*drain=*/true, &error)) << error;
  int guard = 0;
  while (restored.PollOnce() && ++guard < 100000) {
  }
  const SimStateInfo state = restored.simulator().StateNow();
  EXPECT_EQ(state.total_jobs, 7);
  EXPECT_EQ(state.completed_jobs + state.abandoned_jobs, state.total_jobs)
      << "no submission may be lost or duplicated across kill/restore";
  std::remove(path.c_str());
}

// --- What-if scenario validation ---------------------------------------------

// Sends one raw WhatIf frame (the wire's int64 horizon, unclamped by the
// Client API) to a fresh 3Sigma server with a what-if engine attached.
Reply RawWhatIf(const std::string& scenarios, int64_t horizon) {
  const ClusterConfig cluster = ClusterConfig::Uniform(2, 8);
  ThreeSigmaPredictor predictor;
  DistributionScheduler sched(cluster, &predictor, DistSchedulerConfig{});
  LoopbackTransport transport;
  ServiceOptions options;
  options.drain_linger_seconds = 0.0;
  Server server(cluster, &sched, SimOptions{}, options, &transport);
  WhatIfEngine engine(cluster, &sched, TwinOptions{});
  server.AttachWhatIfEngine(&engine);
  std::unique_ptr<LoopbackTransport::Client> channel = transport.Connect();
  channel->SetPump([&server] { server.HandleReady(); });

  Request request;
  request.verb = Verb::kWhatIf;
  request.request_id = 1;
  request.scenarios = scenarios;
  request.horizon = horizon;
  std::string error;
  std::string payload;
  Reply reply;
  EXPECT_TRUE(channel->SendFrame(EncodeRequest(request), &error) &&
              channel->RecvFrame(&payload, 1.0, &error) && DecodeReply(payload, &reply, &error))
      << error;
  return reply;
}

TEST(WhatIfServiceTest, OversizedSolverThreadsIsInvalidArgument) {
  // A remote scenario spec may not size a thread pool: solver_threads is no
  // scenario key, so the request is refused before any fork is built.
  const Reply reply = RawWhatIf("name=huge,solver_threads=100000", 0);
  EXPECT_EQ(reply.code, StatusCode::kInvalidArgument);
  EXPECT_NE(reply.message.find("unknown scenario key: solver_threads"), std::string::npos)
      << reply.message;
}

TEST(WhatIfServiceTest, OutOfRangeHorizonIsInvalidArgument) {
  // 2^32 + 5 once narrowed to a 5-cycle horizon and ran.
  EXPECT_EQ(RawWhatIf("name=a", (1LL << 32) + 5).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(RawWhatIf("name=a", -1).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(RawWhatIf("name=a", kMaxWhatIfHorizon + 1).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(RawWhatIf("name=a", 2).code, StatusCode::kOk);
  EXPECT_EQ(RawWhatIf("name=a", 0).code, StatusCode::kOk);  // The engine default.
}

TEST(WhatIfServiceTest, TooManyScenariosIsInvalidArgument) {
  std::string list;
  for (size_t i = 0; i <= kMaxWhatIfScenarios; ++i) {
    list += "name=s" + std::to_string(i) + ";";
  }
  const Reply reply = RawWhatIf(list, 1);
  EXPECT_EQ(reply.code, StatusCode::kInvalidArgument);
  EXPECT_NE(reply.message.find("limit"), std::string::npos) << reply.message;
}

// --- Socket transport end-to-end ---------------------------------------------

TEST(SocketServiceTest, UnixSocketEndToEnd) {
  const std::string socket_path =
      ::testing::TempDir() + "/svc_test_" + std::to_string(::getpid()) + ".sock";
  SocketServerOptions socket_options;
  socket_options.unix_path = socket_path;
  SocketServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Listen(socket_options, &error)) << error;

  const ClusterConfig cluster = ClusterConfig::Uniform(2, 8);
  PrioScheduler scheduler(cluster);
  ServiceOptions service;
  service.poll_timeout_seconds = 0.005;
  Server server(cluster, &scheduler, SimOptions{}, service, &transport);
  std::thread serve_thread([&server] { server.Serve(); });

  auto channel = SocketClientChannel::ConnectUnix(socket_path, &error);
  ASSERT_NE(channel, nullptr) << error;
  ClientOptions client_options;
  client_options.request_timeout_seconds = 10.0;
  Client client(channel.get(), client_options);

  std::set<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    JobId id = 0;
    ASSERT_TRUE(client.SubmitJob(MakeJob(0, static_cast<double>(i)),
                                 "sock-" + std::to_string(i), &id, &error))
        << error;
    EXPECT_TRUE(ids.insert(id).second);
  }
  JobId duplicate = 0;
  ASSERT_TRUE(client.SubmitJob(MakeJob(0), "sock-0", &duplicate, &error)) << error;
  EXPECT_EQ(ids.count(duplicate), 1u);

  ASSERT_TRUE(client.Shutdown(/*drain=*/true, &error)) << error;
  bool drained = false;
  for (int i = 0; i < 3000; ++i) {
    SimStateInfo state;
    uint64_t queue_depth = 0;
    ASSERT_TRUE(client.GetClusterState(&state, &queue_depth, &error)) << error;
    if (state.drained && queue_depth == 0) {
      EXPECT_EQ(state.total_jobs, 5);
      EXPECT_EQ(state.completed_jobs + state.abandoned_jobs, state.total_jobs);
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(drained) << "drain never observed over the socket";

  channel.reset();  // Closing the last connection lets the lingering server exit.
  serve_thread.join();
  transport.Close();
}

}  // namespace
}  // namespace threesigma::svc
