#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "src/common/check.h"
#include "src/core/systems.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sim/simulator.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/transport.h"
#include "src/twin/scenario.h"
#include "src/twin/twin.h"
#include "src/workload/generator.h"

namespace perfbench {

using namespace threesigma;

namespace {

// What-if sweeps fork the live run into the baseline plus these scenarios.
constexpr char kWhatIfScenarios[] = "name=planahead_half,planahead=600;name=surge,surge=1.5";
// Job-status reads per completed cycle (one cluster-state read comes on top).
constexpr int kJobReadsPerCycle = 2;
// svc_session cancels every this-many-th submission right after submitting it.
constexpr size_t kCancelEvery = 25;

// Fixed parameters of one workload; only the seed varies between instances.
struct Shape {
  ClusterConfig cluster = ClusterConfig::Uniform(4, 64);
  WorkloadOptions workload;
  SimOptions sim;
  DistSchedulerConfig sched;
  // A what-if sweep of `whatif_horizon` speculative cycles every
  // `whatif_every` completed cycles.
  int whatif_every = 0;
  int whatif_horizon = 0;
};

Shape MakeShape(const InstanceOptions& options) {
  Shape s;
  s.workload.env = EnvironmentKind::kGoogle;
  s.workload.seed = options.seed;
  // A fixed job count (the generator scales runtimes to hit the load) takes
  // the job-count component out of the seed-to-seed spread.
  s.workload.fixed_job_count = static_cast<int>(400 * options.scale);
  s.sim.seed = options.seed;
  s.sim.cycle_period = 10.0;
  s.sim.reactive_min_gap = 2.0;
  s.sched.name = SystemName(SystemKind::kThreeSigma);
  s.sched.cycle_period = s.sim.cycle_period;
  // Take the clock out of the work: an unbounded solve (the node budget
  // still applies) on one thread does the same work however slow the host.
  s.sched.solver_time_limit_seconds = 0.0;
  s.sched.solver_threads = 1;

  if (options.workload == "fig06_overload") {
    s.workload.load = 1.4;
    s.workload.duration = Hours(2.0 * options.scale);
    s.whatif_every = 200;
    s.whatif_horizon = 1;
  } else {  // svc_session
    // Light enough that cycles stay cheap: the solver takes about a fifth of
    // a session, the RPC, snapshot and what-if paths most of the rest.
    s.workload.load = 0.5;
    s.workload.duration = Hours(4.0 * options.scale);
    s.whatif_every = 300;
    s.whatif_horizon = 8;
  }
  return s;
}

// Predictor + scheduler stack; the wrappers sit between the simulator and
// the real components.
struct Stack {
  GeneratedWorkload workload;
  std::unique_ptr<ThreeSigmaPredictor> predictor;
  std::unique_ptr<CountingPredictor> counting_predictor;
  std::unique_ptr<DistributionScheduler> sched;
  std::unique_ptr<TimedScheduler> timed_sched;
};

Stack BuildStack(const Shape& shape, InstanceResult* r) {
  Stack st;
  double t0 = Now();
  st.workload = GenerateWorkload(shape.cluster, shape.workload);
  r->generate_ms = (Now() - t0) * 1e3;

  t0 = Now();
  st.predictor = std::make_unique<ThreeSigmaPredictor>();
  for (const JobSpec& job : st.workload.pretrain) {
    st.predictor->RecordCompletion(job.features, job.true_runtime);
  }
  r->pretrain_ms = (Now() - t0) * 1e3;

  st.counting_predictor = std::make_unique<CountingPredictor>(st.predictor.get());
  st.sched = std::make_unique<DistributionScheduler>(shape.cluster, st.counting_predictor.get(),
                                                     shape.sched);
  st.timed_sched = std::make_unique<TimedScheduler>(st.sched.get(), &r->counts);
  return st;
}

std::vector<Scenario> ParseScenariosOrDie(const std::string& text) {
  std::vector<Scenario> out;
  std::string error;
  TS_CHECK_MSG(ParseScenarioList(text, &out, &error), "bad scenario list: " + error);
  return out;
}

// Quality metrics, outcome hash, and the per-job correctness checks shared by
// every workload. `expected_ids` lists every job id the run accepted;
// `cancelled` the ones withdrawn before they ran.
void Finalize(const SimResult& result, const std::vector<JobId>& expected_ids,
              const std::set<JobId>& cancelled, InstanceResult* r) {
  const RunMetrics m = ComputeMetrics(result, "3Sigma");
  r->slo_met_pct = 100.0 - m.slo_miss_rate_percent;
  r->goodput_mhr = m.goodput_machine_hours;
  r->be_latency_mean_s = m.mean_be_latency_seconds;
  r->abandoned = m.abandoned;
  r->unfinished = m.unfinished;

  if (result.rejected_placements != 0) {
    r->errors.push_back("rejected_placements = " + std::to_string(result.rejected_placements));
    r->failed += result.rejected_placements;
  }

  std::vector<const JobRecord*> records;
  records.reserve(result.jobs.size());
  for (const JobRecord& job : result.jobs) {
    records.push_back(&job);
  }
  std::sort(records.begin(), records.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->spec.id < b->spec.id; });

  std::vector<JobId> expected = expected_ids;
  std::sort(expected.begin(), expected.end());
  std::vector<JobId> seen;
  seen.reserve(records.size());
  Fnv hash;
  for (const JobRecord* job : records) {
    seen.push_back(job->spec.id);
    const bool terminal = job->status == JobStatus::kCompleted ||
                          job->status == JobStatus::kAbandoned ||
                          job->status == JobStatus::kUnfinished;
    if (!terminal) {
      r->errors.push_back("job " + std::to_string(job->spec.id) + " ended in no final state");
    }
    if (cancelled.count(job->spec.id) > 0 && job->status != JobStatus::kAbandoned) {
      r->errors.push_back("cancelled job " + std::to_string(job->spec.id) + " still ran");
    }
    hash.AddValue(job->spec.id);
    hash.AddValue(static_cast<int>(job->status));
    hash.AddValue(job->start_time);
    hash.AddValue(job->finish_time);
    hash.AddValue(job->group);
    hash.AddValue(job->preemptions);
  }
  if (seen != expected) {
    r->errors.push_back("final job set differs from the submitted one (" +
                        std::to_string(seen.size()) + " final, " +
                        std::to_string(expected.size()) + " submitted)");
  }
  r->outcome_hash = hash.value();
}

// Per-layer busy time from the CycleProfiler (traced instances only).
void CollectPhases(InstanceResult* r) {
  using obs::Phase;
  for (const obs::CyclePhaseRow& row : obs::CycleProfiler::Global().rows()) {
    r->capacity_ms += row.phase_seconds[static_cast<size_t>(Phase::kCapacity)] * 1e3;
    r->valuation_ms += row.phase_seconds[static_cast<size_t>(Phase::kValuation)] * 1e3;
    r->build_ms += row.phase_seconds[static_cast<size_t>(Phase::kBuild)] * 1e3;
    r->placement_ms += row.phase_seconds[static_cast<size_t>(Phase::kPlacement)] * 1e3;
    r->twin_sweep_ms += row.twin_sweep_seconds * 1e3;
  }
}

// Saves the live state to memory, as a what-if fork does, timing it.
void TimeSnapshot(Simulator& sim, InstanceResult* r) {
  const double t0 = Now();
  const std::string buffer = sim.SaveStateToBuffer();
  r->snapshot_save_ms += (Now() - t0) * 1e3;
  r->counts.snapshot_bytes += static_cast<int64_t>(buffer.size());
}

// --- Batch workload (fig06_overload) ----------------------------------------

void RunBatch(const Shape& shape, InstanceResult* r) {
  const double setup_start = Now();
  Stack st = BuildStack(shape, r);
  Simulator sim(shape.cluster, st.timed_sched.get(), st.workload.jobs, shape.sim);
  TwinOptions twin_options;
  WhatIfEngine engine(shape.cluster, st.sched.get(), twin_options);
  const std::vector<Scenario> scenarios = ParseScenariosOrDie(kWhatIfScenarios);
  const std::vector<JobSpec>& jobs = st.workload.jobs;
  r->setup_s = Now() - setup_start;

  TimedScheduler& ts = *st.timed_sched;
  int64_t probe_ops = 0;
  int64_t probe_failures = 0;
  int64_t cycles = 0;
  double wall = 0.0;
  for (;;) {
    const double hooks_before = ts.hook_seconds;
    const double t0 = Now();
    const bool stepped = sim.Step();
    const double dt = Now() - t0;
    wall += dt;
    r->sim_self_ms += (dt - (ts.hook_seconds - hooks_before)) * 1e3;
    ++r->counts.sim_steps;
    if (!stepped) {
      break;
    }
    ++cycles;

    // Reads against the live run: cluster state and a rotating pair of jobs.
    double q0 = Now();
    const SimStateInfo state = sim.StateNow();
    r->query_us.Add((Now() - q0) * 1e6);
    ++probe_ops;
    if (state.cycles_completed != static_cast<uint64_t>(cycles)) {
      ++probe_failures;
    }
    for (int k = 0; k < kJobReadsPerCycle; ++k) {
      const JobId id =
          jobs[static_cast<size_t>(cycles * kJobReadsPerCycle + k) % jobs.size()].id;
      JobStatusInfo info;
      q0 = Now();
      const bool found = sim.QueryJob(id, &info);
      r->query_us.Add((Now() - q0) * 1e6);
      ++probe_ops;
      if (!found) {
        ++probe_failures;
      }
    }

    if (cycles % shape.whatif_every == 0) {
      TimeSnapshot(sim, r);
      const bool repeat = cycles == shape.whatif_every;
      std::string first_text;
      for (int attempt = 0; attempt < (repeat ? 2 : 1); ++attempt) {
        const double w0 = Now();
        const WhatIfReport report = engine.Run(sim, scenarios, shape.whatif_horizon);
        r->whatif_ms.Add((Now() - w0) * 1e3);
        ++probe_ops;
        const bool ok = std::all_of(report.outcomes.begin(), report.outcomes.end(),
                                    [](const ScenarioOutcome& o) { return o.ok; });
        if (!ok) {
          ++probe_failures;
        }
        const std::string text = report.ToText();
        if (attempt == 0) {
          first_text = text;
        } else if (text != first_text) {
          r->errors.push_back("repeated WhatIf at one parked state gave a different report");
        }
      }
    }
  }
  const double t0 = Now();
  const SimResult result = sim.Finish();
  wall += Now() - t0;
  r->wall_s = wall;

  r->attempted = static_cast<int64_t>(jobs.size()) + probe_ops;
  r->failed = probe_failures;
  if (probe_failures > 0) {
    r->errors.push_back(std::to_string(probe_failures) + " read or what-if operations failed");
  }
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    ids.push_back(job.id);
  }
  Finalize(result, ids, {}, r);
  r->cycle_ms = ts.cycle_ms;
  r->arrival_us = ts.arrival_us;
  r->submit_us = ts.arrival_us;  // A batch submission is the arrival hook.
  r->solve_ms = ts.solve_ms;
  r->solve_seconds = ts.solve_seconds;
  r->counts.predict_calls = st.counting_predictor->calls();
}

// --- Service session (svc_session) ------------------------------------------

void RunService(const Shape& shape, InstanceResult* r) {
  const double setup_start = Now();
  Stack st = BuildStack(shape, r);
  std::vector<JobSpec> jobs = st.workload.jobs;
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit_time < b.submit_time;
  });

  TwinOptions twin_options;
  WhatIfEngine engine(shape.cluster, st.sched.get(), twin_options);  // Outlives the server.
  svc::LoopbackTransport transport;
  svc::ServiceOptions service;
  service.drain_linger_seconds = 0.0;
  svc::Server server(shape.cluster, st.timed_sched.get(), shape.sim, service, &transport);
  server.AttachWhatIfEngine(&engine);
  auto channel = transport.Connect();
  channel->SetPump([&server, r] {
    const double t0 = Now();
    server.HandleReady();
    r->svc_handle_ms += (Now() - t0) * 1e3;
    r->counts.queue_depth_max =
        std::max<int64_t>(r->counts.queue_depth_max, static_cast<int64_t>(server.queue_depth()));
  });
  svc::ClientOptions client_options;
  // A RETRY_LATER must not sleep inside a timed submit; it is counted as a
  // refused operation instead.
  client_options.sleep_on_backoff = false;
  svc::Client client(channel.get(), client_options);
  r->setup_s = Now() - setup_start;

  TimedScheduler& ts = *st.timed_sched;
  int64_t rpc_errors = 0;
  std::string error;
  auto note_error = [&](const std::string& what) {
    ++rpc_errors;
    if (r->errors.size() < 8) {
      r->errors.push_back(what + ": " + error);
    }
  };
  auto step = [&] {
    const double hooks_before = ts.hook_seconds;
    const double t0 = Now();
    const bool stepped = server.StepCycle();
    const double dt = Now() - t0;
    r->svc_step_ms += dt * 1e3;
    r->sim_self_ms += (dt - (ts.hook_seconds - hooks_before)) * 1e3;
    ++r->counts.sim_steps;
    return stepped;
  };
  auto read_state = [&](SimStateInfo* state) {
    uint64_t queue_depth = 0;
    const double t0 = Now();
    const bool ok = client.GetClusterState(state, &queue_depth, &error);
    r->query_us.Add((Now() - t0) * 1e6);
    ++r->counts.rpcs;
    if (!ok) {
      note_error("GetClusterState");
    }
    return ok;
  };

  std::vector<JobId> assigned;
  std::set<JobId> assigned_set;
  std::set<JobId> cancelled;
  std::map<std::string, JobId> token_ids;
  size_t next = 0;
  size_t read_cursor = 0;
  int64_t sweeps = 0;
  bool stalled = false;
  bool draining = false;

  const double run_start = Now();
  for (;;) {
    SimStateInfo state;
    if (!read_state(&state)) {
      break;
    }
    // Closed loop paced by simulated arrival time: send the jobs due before
    // the next periodic cycle (or, when the simulation has nothing left to
    // step, the next job), read some back, then step one cycle. After the
    // last submission a drain shutdown closes the session.
    const double horizon = state.now + shape.sim.cycle_period;
    for (size_t sent = 0;
         next < jobs.size() && (jobs[next].submit_time < horizon || (stalled && sent == 0));
         ++sent) {
      const std::string token =
          "s" + std::to_string(shape.workload.seed) + "-" + std::to_string(next);
      JobId id = 0;
      const double t0 = Now();
      const bool ok = client.SubmitJob(jobs[next], token, &id, &error);
      r->submit_us.Add((Now() - t0) * 1e6);
      ++r->counts.rpcs;
      ++next;
      if (!ok) {
        note_error("SubmitJob");
        continue;
      }
      if (!token_ids.emplace(token, id).second || !assigned_set.insert(id).second) {
        r->errors.push_back("submit token " + token + " mapped to a reused job id");
      }
      assigned.push_back(id);
      if (assigned.size() % kCancelEvery == 0) {
        // Cancelled before any cycle can start it, so it is always pending.
        const bool cancelled_ok = client.CancelJob(id, &error);
        ++r->counts.rpcs;
        if (cancelled_ok) {
          cancelled.insert(id);
        } else {
          note_error("CancelJob");
        }
      }
    }
    for (int k = 0; k < kJobReadsPerCycle && !assigned.empty(); ++k) {
      const JobId id = assigned[read_cursor++ % assigned.size()];
      JobStatusInfo info;
      const double t0 = Now();
      const bool ok = client.QueryJob(id, &info, &error);
      r->query_us.Add((Now() - t0) * 1e6);
      ++r->counts.rpcs;
      if (!ok) {
        note_error("QueryJob");
      }
    }

    if (state.cycles_completed > 0 &&
        state.cycles_completed / static_cast<uint64_t>(shape.whatif_every) >
            static_cast<uint64_t>(sweeps)) {
      ++sweeps;
      TimeSnapshot(server.simulator(), r);
      std::string first_report;
      for (int attempt = 0; attempt < (sweeps == 1 ? 2 : 1); ++attempt) {
        std::string report;
        const double t0 = Now();
        const bool ok =
            client.WhatIf(kWhatIfScenarios, shape.whatif_horizon, &report, &error);
        r->whatif_ms.Add((Now() - t0) * 1e3);
        ++r->counts.rpcs;
        if (!ok) {
          note_error("WhatIf");
        } else if (attempt == 0) {
          first_report = report;
        } else if (report != first_report) {
          r->errors.push_back("repeated WhatIf at one parked state gave a different report");
        }
      }
    }

    if (next >= jobs.size() && !draining) {
      draining = true;
      ++r->counts.rpcs;
      if (!client.Shutdown(/*drain=*/true, &error)) {
        note_error("Shutdown");
      }
    }
    stalled = !step();
    if (stalled && draining) {
      break;
    }
  }
  SimStateInfo final_state;
  if (read_state(&final_state) && !final_state.drained) {
    r->errors.push_back("service did not drain");
  }
  r->wall_s = Now() - run_start;

  r->counts.retry_later = client.total_retries();
  r->attempted = r->counts.rpcs;
  r->failed = rpc_errors + r->counts.retry_later;
  const SimResult result = server.simulator().Finish();
  Finalize(result, assigned, cancelled, r);
  r->cycle_ms = ts.cycle_ms;
  r->arrival_us = ts.arrival_us;
  r->solve_ms = ts.solve_ms;
  r->solve_seconds = ts.solve_seconds;
  r->counts.predict_calls = st.counting_predictor->calls();
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "fig06_overload" || name == "svc_session";
}

InstanceResult RunInstance(const InstanceOptions& options) {
  if (options.traced) {
    obs::Options obs_options;
    obs_options.profiler = true;  // Phase table only: no rings, no sinks.
    obs::Configure(obs_options);
  }
  const Shape shape = MakeShape(options);
  InstanceResult r;
  if (options.workload == "svc_session") {
    RunService(shape, &r);
  } else {
    RunBatch(shape, &r);
  }
  r.counts.speculative_cycles =
      obs::MetricsRegistry::Global().GetCounter("twin.speculative_cycles")->Value();
  if (options.traced) {
    CollectPhases(&r);
  }
  r.peak_rss_mb = PeakRssMb();
  return r;
}

}  // namespace perfbench
