// Digital-twin isolation and determinism properties:
//
//   1. Fork isolation: with auto-apply disabled, running what-if sweeps
//      mid-flight changes nothing about the live run — the decision log CSV
//      is byte-identical with the twin on vs off, with the sweep's forks
//      stepped on 1 and on 4 fan-out threads.
//   2. RPC determinism: two identical WhatIf requests issued back-to-back at
//      a parked cycle boundary return byte-identical reports.
//   3. Resume determinism: a server restored from a checkpoint answers WhatIf
//      with exactly the report the original server gives at that boundary,
//      and the advisor's counters survive the restore.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/obs.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"
#include "src/sim/simulator.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/transport.h"
#include "src/twin/scenario.h"
#include "src/twin/twin.h"

namespace threesigma {
namespace {

JobSpec MakeJob(JobId id, Time submit, bool slo) {
  JobSpec spec;
  spec.id = id;
  spec.user = "tester";
  spec.submit_time = submit;
  spec.num_tasks = 1;
  if (slo) {
    spec.name = "twin-prop-slo";
    spec.type = JobType::kSlo;
    spec.true_runtime = 60.0 + 10.0 * static_cast<double>(id % 5);
    spec.deadline = submit + 700.0;
    spec.utility = UtilityFunction::SloStep(10.0, spec.deadline);
  } else {
    spec.name = "twin-prop-be";
    spec.type = JobType::kBestEffort;
    spec.true_runtime = 45.0 + 15.0 * static_cast<double>(id % 3);
    spec.utility = UtilityFunction::BestEffortLinear(1.0, submit, 4.0 * spec.true_runtime);
  }
  spec.features = {"user=tester", std::string("jobname=") + spec.name};
  return spec;
}

std::vector<JobSpec> Workload(int jobs) {
  std::vector<JobSpec> workload;
  for (int i = 0; i < jobs; ++i) {
    workload.push_back(MakeJob(i + 1, 5.0 * i, i % 2 == 0));
  }
  return workload;
}

// `fanout_threads` sizes the what-if engine's scenario pool.
DistSchedulerConfig Config(int fanout_threads) {
  DistSchedulerConfig config;
  config.name = "3Sigma";
  config.use_distribution = true;
  config.overestimate_handling = true;
  config.adaptive_oe = true;
  config.planahead = 1200.0;
  config.num_start_slots = 6;
  config.cycle_period = 10.0;
  config.solver_threads = fanout_threads;
  return config;
}

std::unique_ptr<ThreeSigmaPredictor> TrainedPredictor() {
  auto predictor = std::make_unique<ThreeSigmaPredictor>();
  for (int i = 0; i < 40; ++i) {
    predictor->RecordCompletion({"user=tester", "jobname=twin-prop-slo"},
                                55.0 + (i % 7) * 5.0);
    predictor->RecordCompletion({"user=tester", "jobname=twin-prop-be"},
                                40.0 + (i % 5) * 10.0);
  }
  return predictor;
}

// Runs the workload to completion with decision logging on. When `twin_on`,
// a what-if sweep (auto-apply off) runs at every 4th completed cycle —
// exactly the advisory cadence a serve daemon would use. Returns the live
// run's decision CSV.
std::string DecisionCsv(int fanout_threads, bool twin_on) {
  obs::ResetAll();
  obs::Options obs_options;
  obs_options.decisions = true;
  obs::Configure(obs_options);

  const ClusterConfig cluster = ClusterConfig::Uniform(2, 4);
  auto predictor = TrainedPredictor();
  DistributionScheduler sched(cluster, predictor.get(), Config(fanout_threads));
  SimOptions sim_options;
  sim_options.seed = 11;
  Simulator sim(cluster, &sched, Workload(14), sim_options);

  TwinOptions twin_options;
  twin_options.horizon_cycles = 30;
  twin_options.auto_apply = false;
  WhatIfEngine engine(cluster, &sched, twin_options);

  while (sim.Step()) {
    if (twin_on && sim.cycles_completed() % 4 == 0) {
      engine.Run(sim, DefaultScenarios(), 30);
    }
  }
  sim.Finish();
  obs::DecisionLog::Global().SetEnabled(false);
  return obs::DecisionLog::Global().ToCsvString();
}

TEST(TwinPropertyTest, SweepsPerturbNoLiveDecision) {
  const std::string baseline = DecisionCsv(1, /*twin_on=*/false);
  ASSERT_GT(baseline.size(),
            std::string("cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n")
                .size());
  EXPECT_EQ(baseline, DecisionCsv(1, /*twin_on=*/true))
      << "what-if sweeps changed live decisions at 1 fan-out thread";
  const std::string quad = DecisionCsv(4, /*twin_on=*/false);
  EXPECT_EQ(quad, DecisionCsv(4, /*twin_on=*/true))
      << "what-if sweeps changed live decisions at 4 fan-out threads";
}

// --- RPC-level determinism over the loopback service -------------------------

class TwinServiceTest : public ::testing::Test {
 protected:
  void Start(svc::ServiceOptions options) {
    options.drain_linger_seconds = 0.0;
    predictor_ = TrainedPredictor();
    sched_ = std::make_unique<DistributionScheduler>(cluster_, predictor_.get(), Config(1));
    server_ = std::make_unique<svc::Server>(cluster_, sched_.get(), SimOptions{}, options,
                                            &transport_);
    TwinOptions twin_options;
    twin_options.horizon_cycles = 25;
    engine_ = std::make_unique<WhatIfEngine>(cluster_, sched_.get(), twin_options);
    server_->AttachWhatIfEngine(engine_.get());
    channel_ = transport_.Connect();
    channel_->SetPump([this] { server_->HandleReady(); });
    svc::ClientOptions client_options;
    client_options.sleep_on_backoff = false;
    client_ = std::make_unique<svc::Client>(channel_.get(), client_options);
  }

  void SubmitAndWarm(int jobs, int cycles) {
    std::string error;
    for (int i = 0; i < jobs; ++i) {
      JobId id = 0;
      ASSERT_TRUE(client_->SubmitJob(MakeJob(i + 1, static_cast<double>(5 * i), i % 2 == 0),
                                     "tok-" + std::to_string(i), &id, &error))
          << error;
    }
    for (int i = 0; i < cycles; ++i) {
      server_->StepCycle();
    }
  }

  ClusterConfig cluster_ = ClusterConfig::Uniform(2, 4);
  std::unique_ptr<ThreeSigmaPredictor> predictor_;
  std::unique_ptr<DistributionScheduler> sched_;
  svc::LoopbackTransport transport_;
  std::unique_ptr<WhatIfEngine> engine_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::LoopbackTransport::Client> channel_;
  std::unique_ptr<svc::Client> client_;
};

TEST_F(TwinServiceTest, RepeatedWhatIfRequestsAreByteIdentical) {
  Start(svc::ServiceOptions{});
  SubmitAndWarm(10, 4);
  std::string first;
  std::string second;
  std::string error;
  ASSERT_TRUE(client_->WhatIf("", 0, &first, &error)) << error;
  ASSERT_TRUE(client_->WhatIf("", 0, &second, &error)) << error;
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "identical requests at a parked boundary must match exactly";

  // An explicit scenario list is honored and still deterministic.
  const std::string scenarios = "name=tight,planahead=600;name=surge,surge=2";
  ASSERT_TRUE(client_->WhatIf(scenarios, 20, &first, &error)) << error;
  ASSERT_TRUE(client_->WhatIf(scenarios, 20, &second, &error)) << error;
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("scenarios=3"), std::string::npos) << first;

  std::string status;
  ASSERT_TRUE(client_->AdvisorStatus(&status, &error)) << error;
  EXPECT_NE(status.find("sweeps=4"), std::string::npos) << status;
}

TEST_F(TwinServiceTest, WhatIfWithoutEngineIsInvalidArgument) {
  Start(svc::ServiceOptions{});
  server_->AttachWhatIfEngine(nullptr);
  std::string report;
  std::string error;
  EXPECT_FALSE(client_->WhatIf("", 0, &report, &error));
  EXPECT_NE(error.find("what-if"), std::string::npos) << error;
}

TEST_F(TwinServiceTest, BadScenarioListRejected) {
  Start(svc::ServiceOptions{});
  std::string report;
  std::string error;
  EXPECT_FALSE(client_->WhatIf("bogus_key=1", 0, &report, &error));
}

TEST_F(TwinServiceTest, RestoredServerAnswersWhatIfIdentically) {
  const std::string path = ::testing::TempDir() + "/twin_property_checkpoint.snap";
  svc::ServiceOptions options;
  options.checkpoint_path = path;
  Start(options);
  SubmitAndWarm(10, 4);

  std::string error;
  std::string original_report;
  ASSERT_TRUE(client_->WhatIf("", 0, &original_report, &error)) << error;
  std::string written;
  ASSERT_TRUE(client_->TriggerCheckpoint(&written, &error)) << error;

  // A fresh, identically-configured process restores the checkpoint. The
  // engine attaches before restore, so the advisor state (one sweep already
  // run) comes back with the snapshot.
  auto restored_predictor = TrainedPredictor();
  DistributionScheduler restored_sched(cluster_, restored_predictor.get(), Config(1));
  svc::LoopbackTransport restored_transport;
  svc::Server restored(cluster_, &restored_sched, SimOptions{}, options, &restored_transport);
  TwinOptions twin_options;
  twin_options.horizon_cycles = 25;
  WhatIfEngine restored_engine(cluster_, &restored_sched, twin_options);
  restored.AttachWhatIfEngine(&restored_engine);
  ASSERT_TRUE(restored.RestoreFromFile(path, &error)) << error;

  auto restored_channel = restored_transport.Connect();
  restored_channel->SetPump([&restored] { restored.HandleReady(); });
  svc::ClientOptions client_options;
  client_options.sleep_on_backoff = false;
  svc::Client restored_client(restored_channel.get(), client_options);

  std::string restored_report;
  ASSERT_TRUE(restored_client.WhatIf("", 0, &restored_report, &error)) << error;
  EXPECT_EQ(restored_report, original_report)
      << "a resumed server must answer what-if exactly as the original did";

  EXPECT_EQ(restored_engine.advisor_state().sweeps, 2)
      << "the pre-checkpoint sweep must survive the restore";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace threesigma
