// Service wire protocol: length-prefixed binary frames.
//
// Every RPC is one frame each way. A frame is a u32 little-endian payload
// length followed by the payload; the payload is a complete snapshot
// container (magic + one section + trailing CRC-32) built with the
// SnapshotWriter/SnapshotReader varint codec, so requests and replies get
// the same corruption detection and fail-soft decoding as checkpoints.
// Requests carry section "req", replies section "rep", both version 1.
//
// The decoder is fail-soft against untrusted bytes: truncated, oversized,
// CRC-damaged, or structurally invalid payloads are rejected with an error
// string and never crash the server (tests/svc_test.cc fuzzes this).

#ifndef SRC_SVC_WIRE_H_
#define SRC_SVC_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/cluster/job.h"
#include "src/sim/simulator.h"

namespace threesigma::svc {

// Refuse to buffer frames larger than this by default (a length prefix is
// attacker-controlled; a bogus 4 GiB prefix must not reserve 4 GiB).
constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

enum class Verb : uint8_t {
  kSubmitJob = 1,
  kJobStatus = 2,
  kCancelJob = 3,
  kClusterState = 4,
  kMetricsDump = 5,
  kTriggerCheckpoint = 6,
  kShutdown = 7,
  // Digital-twin verbs (src/twin): run a speculative scenario sweep against
  // the live run / read the online advisor's state. Both reply in
  // Reply.text with a deterministic fixed-format report.
  kWhatIf = 8,
  kAdvisorStatus = 9,
};

const char* VerbName(Verb verb);

enum class StatusCode : uint8_t {
  kOk = 0,
  kRetryLater = 1,      // Admission queue full; resubmit after backoff.
  kMalformed = 2,       // Request payload failed to decode.
  kUnknownVerb = 3,
  kNotFound = 4,        // No such job id.
  kInvalidArgument = 5, // e.g. gang wider than any group.
  kShuttingDown = 6,    // Drain in progress; no new submissions.
  kInternal = 7,
};

const char* StatusCodeName(StatusCode code);

// Flat request: `verb` selects which fields are meaningful.
struct Request {
  Verb verb = Verb::kJobStatus;
  uint64_t request_id = 0;  // Echoed in the reply; client matches on it.

  // kSubmitJob. `token` is the idempotency key: resubmitting the same token
  // returns the originally assigned id instead of admitting a duplicate.
  std::string token;
  JobSpec job;

  // kJobStatus / kCancelJob.
  JobId job_id = 0;

  // kShutdown: true = drain admitted work first, false = stop immediately.
  bool drain = true;

  // kWhatIf. `scenarios` is a ';'-separated scenario list in the
  // src/twin/scenario.h text format (empty = the server's default sweep);
  // `horizon` is the speculative cycle count per scenario (0 = server
  // default).
  std::string scenarios;
  int64_t horizon = 0;
};

// Flat reply; which fields are meaningful depends on the request verb.
struct Reply {
  StatusCode code = StatusCode::kOk;
  uint64_t request_id = 0;
  std::string message;  // Human-readable detail for non-kOk codes.

  JobId job_id = 0;         // Submit (assigned id) / status / cancel.
  JobStatusInfo job;        // kJobStatus.
  SimStateInfo cluster;     // kClusterState.
  uint64_t queue_depth = 0; // kClusterState: admitted, not yet injected.
  std::string text;         // kMetricsDump body / checkpoint path.
};

std::string EncodeRequest(const Request& request);
std::string EncodeReply(const Reply& reply);

// Fail-soft decoders: false + `*error` on any malformed payload; `*out` is
// default-initialized first and unspecified on failure. They read `payload`
// in place, so it must not live inside `*out`.
bool DecodeRequest(const std::string& payload, Request* out, std::string* error);
bool DecodeReply(const std::string& payload, Reply* out, std::string* error);

// --- Framing -----------------------------------------------------------------

// Appends one frame (u32 LE length + payload) to `out`.
void AppendFrame(std::string* out, std::string_view payload);

enum class FrameResult {
  kFrame,     // One complete frame extracted into `*payload`.
  kNeedMore,  // Prefix of a frame; read more bytes and call again.
  kError,     // Unrecoverable framing violation; drop the connection.
};

// Scans `buffer` from `*offset`. On kFrame advances `*offset` past the frame.
// A declared length of 0 or > `max_frame_bytes` is kError (a bad prefix must
// not make the receiver buffer unbounded data).
FrameResult ExtractFrame(const std::string& buffer, size_t* offset, std::string* payload,
                         size_t max_frame_bytes, std::string* error);

}  // namespace threesigma::svc

#endif  // SRC_SVC_WIRE_H_
