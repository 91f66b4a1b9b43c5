#include "src/svc/wire.h"

#include <cstring>

#include "src/snapshot/snapshot_io.h"

namespace threesigma::svc {

namespace {

bool FailWith(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

template <typename Io, typename Info>
void WalkJobStatusInfo(Io& io, Info& info) {
  io.Enum(info.status, JobStatus::kUnfinished);
  io.Double(info.submit_time);
  io.Double(info.start_time);
  io.Double(info.finish_time);
  io.VarInt(info.group);
  io.VarInt(info.preemptions);
  io.Bool(info.arrived);
}

template <typename Io, typename Info>
void WalkSimStateInfo(Io& io, Info& info) {
  io.Double(info.now);
  io.VarUint(info.cycles_completed);
  io.VarInt(info.total_jobs);
  io.VarInt(info.pending_jobs);
  io.VarInt(info.running_jobs);
  io.VarInt(info.completed_jobs);
  io.VarInt(info.abandoned_jobs);
  io.VarInt(info.total_nodes);
  io.VarInt(info.available_nodes);
  io.VarInt(info.free_nodes);
  io.Bool(info.drained);
}

// Only the fields `verb` makes meaningful travel.
template <typename Io, typename Req>
void WalkRequest(Io& io, Req& r) {
  io.Enum(r.verb, Verb::kAdvisorStatus);
  io.VarUint(r.request_id);
  switch (r.verb) {
    case Verb::kSubmitJob:
      io.String(r.token);
      io.Nested(r.job);
      break;
    case Verb::kJobStatus:
    case Verb::kCancelJob:
      io.VarInt(r.job_id);
      break;
    case Verb::kShutdown:
      io.Bool(r.drain);
      break;
    case Verb::kWhatIf:
      io.String(r.scenarios);
      io.VarInt(r.horizon);
      break;
    case Verb::kClusterState:
    case Verb::kMetricsDump:
    case Verb::kTriggerCheckpoint:
    case Verb::kAdvisorStatus:
      break;
  }
}

template <typename Io, typename Rep>
void WalkReply(Io& io, Rep& r) {
  io.Enum(r.code, StatusCode::kInternal);
  io.VarUint(r.request_id);
  io.String(r.message);
  io.VarInt(r.job_id);
  WalkJobStatusInfo(io, r.job);
  WalkSimStateInfo(io, r.cluster);
  io.VarUint(r.queue_depth);
  io.String(r.text);
}

// One frame: a snapshot container holding the single section `name` (v1).
template <typename Message, typename WalkFn>
std::string Encode(const char* name, const Message& message, WalkFn walk) {
  SnapshotWriter writer;
  writer.BeginSection(name, 1);
  walk(writer, message);
  writer.EndSection();
  return writer.Finish();
}

template <typename Message, typename WalkFn>
bool Decode(const char* name, const std::string& payload, Message* out, WalkFn walk,
            std::string* error) {
  *out = Message();
  SnapshotReader reader(SnapshotReader::Borrowed{}, payload);
  uint32_t version = 0;
  if (reader.BeginSection(name, &version) && version != 1) {
    reader.Fail(std::string("unsupported ") + name + " version");
  }
  walk(reader, *out);
  reader.EndSection();
  if (!reader.ok()) {
    return FailWith(error, reader.error());
  }
  return true;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSubmitJob:
      return "submit_job";
    case Verb::kJobStatus:
      return "job_status";
    case Verb::kCancelJob:
      return "cancel_job";
    case Verb::kClusterState:
      return "cluster_state";
    case Verb::kMetricsDump:
      return "metrics_dump";
    case Verb::kTriggerCheckpoint:
      return "trigger_checkpoint";
    case Verb::kShutdown:
      return "shutdown";
    case Verb::kWhatIf:
      return "whatif";
    case Verb::kAdvisorStatus:
      return "advisor_status";
  }
  return "unknown";
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRetryLater:
      return "retry_later";
    case StatusCode::kMalformed:
      return "malformed";
    case StatusCode::kUnknownVerb:
      return "unknown_verb";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kShuttingDown:
      return "shutting_down";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string EncodeRequest(const Request& request) {
  return Encode("req", request, [](auto& io, auto& r) { WalkRequest(io, r); });
}

std::string EncodeReply(const Reply& reply) {
  return Encode("rep", reply, [](auto& io, auto& r) { WalkReply(io, r); });
}

bool DecodeRequest(const std::string& payload, Request* out, std::string* error) {
  return Decode("req", payload, out, [](SnapshotReader& reader, Request& r) {
    WalkRequest(reader, r);
    if (reader.ok() && r.verb < Verb::kSubmitJob) {
      reader.Fail("unknown request verb");
    }
  }, error);
}

bool DecodeReply(const std::string& payload, Reply* out, std::string* error) {
  return Decode("rep", payload, out, [](auto& io, auto& r) { WalkReply(io, r); }, error);
}

void AppendFrame(std::string* out, std::string_view payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char prefix[4];
  prefix[0] = static_cast<char>(length & 0xff);
  prefix[1] = static_cast<char>((length >> 8) & 0xff);
  prefix[2] = static_cast<char>((length >> 16) & 0xff);
  prefix[3] = static_cast<char>((length >> 24) & 0xff);
  out->append(prefix, 4);
  out->append(payload.data(), payload.size());
}

FrameResult ExtractFrame(const std::string& buffer, size_t* offset, std::string* payload,
                         size_t max_frame_bytes, std::string* error) {
  const size_t available = buffer.size() - *offset;
  if (available < 4) {
    return FrameResult::kNeedMore;
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(buffer.data() + *offset);
  const uint32_t length = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (length == 0 || length > max_frame_bytes) {
    FailWith(error, "frame length out of range");
    return FrameResult::kError;
  }
  if (available - 4 < length) {
    return FrameResult::kNeedMore;
  }
  payload->assign(buffer, *offset + 4, length);
  *offset += 4 + static_cast<size_t>(length);
  return FrameResult::kFrame;
}

}  // namespace threesigma::svc
