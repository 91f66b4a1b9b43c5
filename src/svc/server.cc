#include "src/svc/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"

namespace threesigma::svc {

namespace {

SimOptions ForceOpenWorkload(SimOptions sim) {
  sim.open_workload = true;
  return sim;
}

}  // namespace

Server::Server(const ClusterConfig& cluster, Scheduler* scheduler, SimOptions sim,
               ServiceOptions options, ServerTransport* transport)
    : cluster_(cluster),
      options_(std::move(options)),
      transport_(transport),
      sim_(cluster, scheduler, {}, ForceOpenWorkload(std::move(sim))) {
  sim_.SetStateExtension(this);
}

Server::~Server() {
  sim_.SetStateExtension(nullptr);
}

bool Server::RestoreFromFile(const std::string& path, std::string* error) {
  if (!sim_.TryResumeFrom(path, error)) {
    return false;
  }
  UpdateQueueDepth();
  return true;
}

void Server::UpdateQueueDepth() {
  obs::Metrics().svc_admission_queue_depth.Set(static_cast<int64_t>(queue_.size()));
}

bool Server::IdInUse(JobId id) {
  if (queued_ids_.count(id) > 0 || cancelled_before_injection_.count(id) > 0) {
    return true;
  }
  JobStatusInfo info;
  return sim_.QueryJob(id, &info);
}

void Server::HandleReady() {
  std::vector<InboundFrame> frames;
  transport_->Poll(options_.poll_timeout_seconds, &frames);
  for (const InboundFrame& frame : frames) {
    HandleFrame(frame);
    if (stopped_) {
      break;  // Immediate shutdown: later frames die with the connection.
    }
  }
  InjectBatch();
  if (draining_ && queue_.empty() && !submissions_closed_) {
    sim_.CloseSubmissions();
    submissions_closed_ = true;
  }
}

void Server::HandleFrame(const InboundFrame& frame) {
  Request request;
  std::string error;
  Reply reply;
  if (!DecodeRequest(frame.payload, &request, &error)) {
    obs::Metrics().svc_malformed_frames.Increment();
    reply.code = StatusCode::kMalformed;
    reply.message = error;
  } else {
    reply = Dispatch(request);
  }
  transport_->Send(frame.client, EncodeReply(reply));
}

Reply Server::Dispatch(const Request& request) {
  Reply reply;
  reply.request_id = request.request_id;
  obs::Counters& counters = obs::Metrics();
  switch (request.verb) {
    case Verb::kSubmitJob:
      counters.svc_rpc_submit_job.Increment();
      reply = HandleSubmit(request);
      break;
    case Verb::kJobStatus:
      counters.svc_rpc_job_status.Increment();
      reply = HandleStatus(request);
      break;
    case Verb::kCancelJob:
      counters.svc_rpc_cancel_job.Increment();
      reply = HandleCancel(request);
      break;
    case Verb::kClusterState:
      counters.svc_rpc_cluster_state.Increment();
      reply = HandleClusterState(request);
      break;
    case Verb::kMetricsDump:
      counters.svc_rpc_metrics_dump.Increment();
      reply = HandleMetricsDump(request);
      break;
    case Verb::kTriggerCheckpoint:
      counters.svc_rpc_trigger_checkpoint.Increment();
      reply = HandleCheckpoint(request);
      break;
    case Verb::kShutdown:
      counters.svc_rpc_shutdown.Increment();
      reply = HandleShutdown(request);
      break;
    case Verb::kWhatIf:
      counters.svc_rpc_whatif.Increment();
      reply = HandleWhatIf(request);
      break;
    case Verb::kAdvisorStatus:
      counters.svc_rpc_advisor_status.Increment();
      reply = HandleAdvisorStatus(request);
      break;
  }
  reply.request_id = request.request_id;
  return reply;
}

Reply Server::HandleSubmit(const Request& request) {
  Reply reply;
  if (draining_ || stopped_) {
    reply.code = StatusCode::kShuttingDown;
    reply.message = "server is draining";
    return reply;
  }
  // Idempotency: a replayed token returns the originally assigned id without
  // admitting a second copy (retries and post-restore resubmissions hit this).
  if (!request.token.empty()) {
    auto it = token_to_id_.find(request.token);
    if (it != token_to_id_.end()) {
      obs::Metrics().svc_duplicate_tokens.Increment();
      reply.code = StatusCode::kOk;
      reply.job_id = it->second;
      reply.message = "duplicate token";
      return reply;
    }
  }
  if (!ValidateJobSpec(request.job, cluster_, &reply.message)) {
    reply.code = StatusCode::kInvalidArgument;
    return reply;
  }
  if (queue_.size() >= options_.admission_capacity) {
    obs::Metrics().svc_retry_later.Increment();
    reply.code = StatusCode::kRetryLater;
    reply.message = "admission queue full";
    return reply;
  }
  JobSpec spec = request.job;
  if (spec.id == 0 || IdInUse(spec.id)) {
    while (IdInUse(next_id_)) {
      ++next_id_;
    }
    spec.id = next_id_;
  }
  next_id_ = std::max(next_id_, spec.id + 1);
  queue_.push_back(spec);
  queued_ids_.insert(spec.id);
  if (!request.token.empty()) {
    token_to_id_[request.token] = spec.id;
  }
  obs::Metrics().svc_admitted.Increment();
  UpdateQueueDepth();
  reply.code = StatusCode::kOk;
  reply.job_id = spec.id;
  return reply;
}

Reply Server::HandleStatus(const Request& request) {
  Reply reply;
  reply.job_id = request.job_id;
  if (queued_ids_.count(request.job_id) > 0) {
    for (const JobSpec& spec : queue_) {
      if (spec.id == request.job_id) {
        reply.job.status = JobStatus::kPending;
        reply.job.submit_time = spec.submit_time;
        reply.job.arrived = false;
        break;
      }
    }
    reply.code = StatusCode::kOk;
    return reply;
  }
  if (cancelled_before_injection_.count(request.job_id) > 0) {
    reply.job.status = JobStatus::kAbandoned;
    reply.code = StatusCode::kOk;
    return reply;
  }
  if (sim_.QueryJob(request.job_id, &reply.job)) {
    reply.code = StatusCode::kOk;
  } else {
    reply.code = StatusCode::kNotFound;
    reply.message = "no such job";
  }
  return reply;
}

Reply Server::HandleCancel(const Request& request) {
  Reply reply;
  reply.job_id = request.job_id;
  if (queued_ids_.count(request.job_id) > 0) {
    // Still in the admission queue: withdraw before the simulation ever
    // sees it. The id stays burned so token dedupe keeps resolving.
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const JobSpec& s) { return s.id == request.job_id; }),
                 queue_.end());
    queued_ids_.erase(request.job_id);
    cancelled_before_injection_.insert(request.job_id);
    UpdateQueueDepth();
    reply.code = StatusCode::kOk;
    return reply;
  }
  if (cancelled_before_injection_.count(request.job_id) > 0) {
    reply.code = StatusCode::kOk;  // Idempotent: already cancelled.
    return reply;
  }
  std::string error;
  if (sim_.CancelJob(request.job_id, &error)) {
    reply.code = StatusCode::kOk;
    return reply;
  }
  JobStatusInfo info;
  if (sim_.QueryJob(request.job_id, &info)) {
    reply.code = StatusCode::kInvalidArgument;  // Known but not cancellable.
    reply.message = error;
  } else {
    reply.code = StatusCode::kNotFound;
    reply.message = "no such job";
  }
  return reply;
}

Reply Server::HandleClusterState(const Request& /*request*/) {
  Reply reply;
  reply.code = StatusCode::kOk;
  reply.cluster = sim_.StateNow();
  reply.queue_depth = queue_.size();
  return reply;
}

Reply Server::HandleMetricsDump(const Request& /*request*/) {
  Reply reply;
  reply.code = StatusCode::kOk;
  std::ostringstream os;
  obs::MetricsRegistry::Global().WriteText(os);
  reply.text = os.str();
  return reply;
}

Reply Server::HandleCheckpoint(const Request& /*request*/) {
  Reply reply;
  if (options_.checkpoint_path.empty()) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = "server started without a checkpoint path";
    return reply;
  }
  std::string error;
  if (!sim_.WriteCheckpoint(options_.checkpoint_path, &error)) {
    reply.code = StatusCode::kInternal;
    reply.message = error;
    return reply;
  }
  last_checkpoint_cycle_ = sim_.cycles_completed();
  reply.code = StatusCode::kOk;
  reply.text = options_.checkpoint_path;
  return reply;
}

Reply Server::HandleWhatIf(const Request& request) {
  // Dispatch runs inside HandleReady, before StepCycle, so the live
  // simulation is parked at a cycle boundary — the engine's contract.
  Reply reply;
  if (whatif_ == nullptr) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = "server started without a what-if engine";
    return reply;
  }
  // The wire carries an int64 horizon; 0 means the engine's default.
  if (request.horizon < 0 || request.horizon > kMaxWhatIfHorizon) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = "horizon " + std::to_string(request.horizon) + " outside [0, " +
                    std::to_string(kMaxWhatIfHorizon) + "]";
    return reply;
  }
  std::vector<Scenario> scenarios;
  std::string error;
  if (!ParseScenarioList(request.scenarios, &scenarios, &error)) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = error;
    return reply;
  }
  if (scenarios.size() > kMaxWhatIfScenarios) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = std::to_string(scenarios.size()) + " scenarios exceed the limit of " +
                    std::to_string(kMaxWhatIfScenarios);
    return reply;
  }
  if (scenarios.empty()) {
    scenarios = whatif_->options().advisory_scenarios;
    if (scenarios.empty()) {
      scenarios = DefaultScenarios();
    }
  }
  const WhatIfReport report =
      whatif_->Run(sim_, scenarios, static_cast<int>(request.horizon));
  reply.code = StatusCode::kOk;
  reply.text = report.ToText();
  return reply;
}

Reply Server::HandleAdvisorStatus(const Request& /*request*/) {
  Reply reply;
  if (whatif_ == nullptr) {
    reply.code = StatusCode::kInvalidArgument;
    reply.message = "server started without a what-if engine";
    return reply;
  }
  reply.code = StatusCode::kOk;
  reply.text = whatif_->AdvisorStatusText();
  return reply;
}

Reply Server::HandleShutdown(const Request& request) {
  Reply reply;
  reply.code = StatusCode::kOk;
  if (request.drain) {
    draining_ = true;
    reply.message = "draining";
  } else {
    stopped_ = true;
    reply.message = "stopping immediately";
  }
  return reply;
}

void Server::InjectBatch() {
  size_t injected = 0;
  while (!queue_.empty() && injected < options_.max_batch_per_cycle) {
    JobSpec spec = std::move(queue_.front());
    queue_.pop_front();
    queued_ids_.erase(spec.id);
    std::string error;
    const bool ok = sim_.InjectJob(std::move(spec), &error);
    TS_CHECK_MSG(ok, "admission-validated job rejected by the simulator: " + error);
    obs::Metrics().svc_injected.Increment();
    ++injected;
  }
  if (injected > 0) {
    UpdateQueueDepth();
  }
}

bool Server::StepCycle() {
  if (sim_.drained()) {
    return false;
  }
  const bool stepped = sim_.Step();
  if (stepped) {
    // Advisory sweeps run at the just-completed cycle boundary, before the
    // checkpoint — so the checkpointed advisor state includes the sweep and
    // a resumed run does not re-advise the same cycle.
    if (whatif_ != nullptr) {
      whatif_->MaybeAdvise(sim_, sim_.cycles_completed());
    }
    MaybeCheckpoint();
  }
  return stepped;
}

void Server::MaybeCheckpoint() {
  if (options_.checkpoint_every_cycles <= 0 || options_.checkpoint_path.empty()) {
    return;
  }
  const uint64_t cycles = sim_.cycles_completed();
  if (cycles < last_checkpoint_cycle_ + static_cast<uint64_t>(options_.checkpoint_every_cycles)) {
    return;
  }
  std::string error;
  const bool ok = sim_.WriteCheckpoint(options_.checkpoint_path, &error);
  TS_CHECK_MSG(ok, "periodic checkpoint failed: " + error);
  last_checkpoint_cycle_ = cycles;
}

bool Server::PollOnce() {
  if (stopped_) {
    return false;
  }
  HandleReady();
  if (stopped_) {
    return false;
  }
  StepCycle();
  if (draining_ && sim_.drained()) {
    // Linger so polling clients can observe the drained state; exit as soon
    // as every connection has closed.
    const double now = std::chrono::duration<double>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
    if (linger_until_ == 0.0) {
      linger_until_ = now + options_.drain_linger_seconds;
    }
    if (transport_->ActiveConnections() == 0 || now >= linger_until_) {
      stopped_ = true;
      return false;
    }
  }
  return true;
}

void Server::Serve() {
  while (PollOnce()) {
  }
}

template <typename Io, typename Self>
void Server::Walk(Io& io, Self& self) {
  io.VarInt(self.next_id_);
  io.Bool(self.draining_);
  io.Bool(self.submissions_closed_);
  io.Seq(self.queue_, [&](auto& spec) { io.Nested(spec); }, 8);
  io.Map(self.token_to_id_, [&](auto& token, auto& id) {
    io.String(token);
    io.VarInt(id);
  }, 2);
  io.Seq(self.cancelled_before_injection_, [&](auto& id) { io.VarInt(id); });
}

void Server::SaveState(SnapshotWriter& writer) const {
  writer.BeginSection("svc", 1);
  Walk(writer, *this);
  writer.EndSection();
  if (whatif_ != nullptr) {
    whatif_->SaveState(writer);  // Versioned "twin" section.
  }
}

void Server::RestoreState(SnapshotReader& reader) {
  reader.BeginSection("svc");
  Walk(reader, *this);
  queued_ids_.clear();
  for (const JobSpec& spec : queue_) {
    queued_ids_.insert(spec.id);
  }
  reader.EndSection();
  // Older snapshots (or runs without the engine) have no "twin" section;
  // reading is gated on both sides so either combination restores cleanly.
  if (whatif_ != nullptr && reader.ok() && reader.PeekSectionName() == "twin") {
    whatif_->RestoreState(reader);
  }
}

}  // namespace threesigma::svc
