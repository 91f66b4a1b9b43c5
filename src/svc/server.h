// Online scheduling service: an open-workload Simulator behind an RPC server.
//
// The server turns the batch simulator into a long-running daemon. Clients
// submit jobs, query status, and pull cluster state over any ServerTransport;
// the server admits submissions into a bounded queue (explicit kRetryLater
// backpressure — nothing is ever dropped silently), injects them into the
// simulation in batches between scheduling cycles, and steps the simulation
// forward as fast as events allow.
//
// Determinism. Every scheduling decision is a pure function of the admitted
// job sequence: a scripted loopback session replays byte-identically across
// runs and solver thread counts (tests/svc_property_test.cc proves a
// service-fed run equals the batch run on the same jobs).
//
// Durability. The server piggybacks its own state — admission queue, next
// job id, idempotency token table — onto simulator checkpoints via
// SimulatorStateExtension, so one snapshot file restarts the whole service:
// kill the process, restore, and resubmitting the same tokens dedupes
// instead of duplicating work.

#ifndef SRC_SVC_SERVER_H_
#define SRC_SVC_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/svc/transport.h"
#include "src/svc/wire.h"
#include "src/twin/twin.h"

namespace threesigma::svc {

struct ServiceOptions {
  // Admission queue bound; a full queue answers kRetryLater.
  size_t admission_capacity = 1024;
  // Max submissions injected into the simulation per service iteration, so
  // one burst cannot starve RPC handling.
  size_t max_batch_per_cycle = 256;
  // Transport poll timeout per iteration (socket transports block this long
  // when idle; the loopback ignores it).
  double poll_timeout_seconds = 0.05;
  // Periodic checkpointing: every `checkpoint_every_cycles` completed cycles
  // the full service state is written to `checkpoint_path` (0 = off). The
  // TriggerCheckpoint RPC uses the same path.
  std::string checkpoint_path;
  int64_t checkpoint_every_cycles = 0;
  // After a drain completes, keep answering (read-only) RPCs this long so
  // polling clients observe the drained state before the daemon exits; the
  // server exits early once every connection has closed.
  double drain_linger_seconds = 5.0;
};

class Server : public SimulatorStateExtension {
 public:
  // `scheduler` and `transport` must outlive the server; `cluster` must
  // outlive the internal simulator. `sim.open_workload` is forced on.
  Server(const ClusterConfig& cluster, Scheduler* scheduler, SimOptions sim,
         ServiceOptions options, ServerTransport* transport);
  ~Server() override;

  // Attaches the digital-twin what-if engine (not owned; must outlive the
  // server). Enables the kWhatIf / kAdvisorStatus verbs, the periodic
  // advisory hook, and the "twin" checkpoint section. Attach before any
  // RestoreFromFile so a checkpointed advisor state round-trips.
  void AttachWhatIfEngine(WhatIfEngine* engine) { whatif_ = engine; }

  // Restores a checkpoint written by this service (simulator + scheduler +
  // the "svc" section). Must be called before the first PollOnce.
  bool RestoreFromFile(const std::string& path, std::string* error);

  // RPC half of one iteration: polls the transport, answers every complete
  // frame, injects one admission batch, and closes simulator submissions
  // once a drain has emptied the queue. Never steps the simulation — the
  // deterministic loopback pump uses exactly this.
  void HandleReady();

  // Simulation half: advances at most one scheduling cycle, then writes a
  // periodic checkpoint if one is due. False when no cycle could be stepped.
  bool StepCycle();

  // One full service iteration. False once the server is finished (an
  // immediate shutdown, or a drain that has fully played out).
  bool PollOnce();

  // Runs PollOnce until the server is finished (the daemon main loop).
  void Serve();

  // SimulatorStateExtension — the "svc" checkpoint section.
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

  bool draining() const { return draining_; }
  bool stopped() const { return stopped_; }
  size_t queue_depth() const { return queue_.size(); }
  Simulator& simulator() { return sim_; }

 private:
  void HandleFrame(const InboundFrame& frame);
  Reply Dispatch(const Request& request);
  Reply HandleSubmit(const Request& request);
  Reply HandleStatus(const Request& request);
  Reply HandleCancel(const Request& request);
  Reply HandleClusterState(const Request& request);
  Reply HandleMetricsDump(const Request& request);
  Reply HandleCheckpoint(const Request& request);
  Reply HandleShutdown(const Request& request);
  Reply HandleWhatIf(const Request& request);
  Reply HandleAdvisorStatus(const Request& request);

  // A job id is taken if the simulation, the admission queue, or the
  // cancelled-before-injection set knows it.
  bool IdInUse(JobId id);
  void InjectBatch();
  void MaybeCheckpoint();
  void UpdateQueueDepth();
  template <typename Io, typename Self>
  static void Walk(Io& io, Self& self);

  const ClusterConfig& cluster_;
  ServiceOptions options_;
  ServerTransport* transport_;
  Simulator sim_;
  WhatIfEngine* whatif_ = nullptr;  // Not owned; null = twin verbs disabled.

  // Admission state (checkpointed via the "svc" section).
  std::deque<JobSpec> queue_;            // Admitted, not yet injected.
  std::set<JobId> queued_ids_;
  std::map<std::string, JobId> token_to_id_;  // Idempotent submission dedupe.
  std::set<JobId> cancelled_before_injection_;
  JobId next_id_ = 1;
  bool draining_ = false;

  // Runtime-only state.
  bool stopped_ = false;
  bool submissions_closed_ = false;
  uint64_t last_checkpoint_cycle_ = 0;
  double linger_until_ = 0.0;  // Monotonic deadline; 0 = drain not seen yet.
};

}  // namespace threesigma::svc

#endif  // SRC_SVC_SERVER_H_
