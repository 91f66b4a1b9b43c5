// Unit tests for the observability subsystem: metrics registry, span tracer,
// cycle profiler, decision log, and the Configure/Flush/ApplyEnv front door.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace obs {
namespace {

// Every test starts and ends with all gates off and all collected state
// dropped, so tests in this binary cannot observe each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetRingCapacity(static_cast<size_t>(Options{}.ring_capacity));
    ResetAll();
  }
  void TearDown() override {
    Tracer::Global().SetRingCapacity(static_cast<size_t>(Options{}.ring_capacity));
    ResetAll();
  }
};

using RegistryTest = ObsTest;
using TracerTest = ObsTest;
using ProfilerTest = ObsTest;
using DecisionLogTest = ObsTest;
using FrontDoorTest = ObsTest;

TEST_F(RegistryTest, CounterAddAndValue) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter_basic");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  c->Add(-2);
  EXPECT_EQ(c->Value(), 40);
}

TEST_F(RegistryTest, CounterSetIsAbsolute) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter_set");
  c->Add(100);
  c->Set(7);  // Snapshot-restore semantics: replaces, never adds.
  EXPECT_EQ(c->Value(), 7);
  c->Increment();
  EXPECT_EQ(c->Value(), 8);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST_F(RegistryTest, GetCounterReturnsStablePointer) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.counter_stable");
  Counter* b = reg.GetCounter("test.counter_stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.counter_stable");
}

TEST_F(RegistryTest, ConcurrentCounterAddsSumExactly) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter_mt");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c->Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // One atomic cell: concurrent adds sum exactly to the single-threaded total.
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST_F(RegistryTest, GaugeLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  g->Set(2.5);
  g->Set(-1.25);
  EXPECT_DOUBLE_EQ(g->Value(), -1.25);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST_F(RegistryTest, WriteTextIsSortedAndDeterministic) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.z_counter")->Add(3);
  reg.GetCounter("test.a_counter")->Add(1);
  reg.GetGauge("test.m_gauge")->Set(0.5);
  std::ostringstream first;
  reg.WriteText(first);
  std::ostringstream second;
  reg.WriteText(second);
  EXPECT_EQ(first.str(), second.str());
  const std::string text = first.str();
  const size_t a = text.find("test.a_counter");
  const size_t z = text.find("test.z_counter");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_NE(text.find("test.m_gauge"), std::string::npos);
}

TEST_F(RegistryTest, CounterValuesSortedSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.cv_b")->Add(2);
  reg.GetCounter("test.cv_a")->Add(1);
  bool saw_a = false;
  bool saw_b = false;
  std::string prev;
  for (const auto& [name, value] : reg.CounterValues()) {
    EXPECT_LE(prev, name);  // Sorted by name.
    prev = name;
    if (name == "test.cv_a") {
      saw_a = true;
      EXPECT_EQ(value, 1);
    }
    if (name == "test.cv_b") {
      saw_b = true;
      EXPECT_EQ(value, 2);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(RegistryTest, SaveRestoreRoundTripIsAbsolute) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.rt_counter")->Add(42);
  reg.GetGauge("test.rt_gauge")->Set(1.5);

  SnapshotWriter writer;
  writer.BeginSection("obs", 1);
  reg.SaveState(writer);
  writer.EndSection();
  const std::string buffer = writer.Finish();

  // Mutate after the save; restore must overwrite, not accumulate.
  reg.GetCounter("test.rt_counter")->Add(1000);
  reg.GetGauge("test.rt_gauge")->Set(-9.0);

  SnapshotReader reader(buffer);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.BeginSection("obs"));
  const RegistryImage image = MetricsRegistry::ReadState(reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok());
  // Reading touches no registry; only ApplyState installs the values.
  EXPECT_EQ(reg.GetCounter("test.rt_counter")->Value(), 1042);
  reg.ApplyState(image);

  EXPECT_EQ(reg.GetCounter("test.rt_counter")->Value(), 42);
  EXPECT_DOUBLE_EQ(reg.GetGauge("test.rt_gauge")->Value(), 1.5);
}

TEST_F(RegistryTest, RestoreCreatesMissingMetrics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Save from a registry that has a uniquely-named counter, then restore and
  // verify lookups recreate it with the saved value. (The global registry
  // never deletes metrics, so "missing" is simulated by a fresh name: the
  // save/restore path must not depend on prior GetCounter calls — this is
  // what lets an old binary resume a newer snapshot.)
  SnapshotWriter writer;
  writer.BeginSection("obs", 1);
  reg.GetCounter("test.rc_counter")->Set(11);
  reg.SaveState(writer);
  writer.EndSection();
  reg.GetCounter("test.rc_counter")->Set(0);

  SnapshotReader reader(writer.Finish());
  ASSERT_TRUE(reader.BeginSection("obs"));
  reg.ApplyState(MetricsRegistry::ReadState(reader));
  reader.EndSection();
  EXPECT_EQ(reg.GetCounter("test.rc_counter")->Value(), 11);
}

TEST_F(RegistryTest, ResetZeroesEverything) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.reset_c")->Add(5);
  reg.GetGauge("test.reset_g")->Set(5.0);
  reg.Reset();
  EXPECT_EQ(reg.GetCounter("test.reset_c")->Value(), 0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("test.reset_g")->Value(), 0.0);
}

TEST_F(TracerTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    TS_OBS_SPAN("test.disabled", Phase::kOther);
  }
  EXPECT_TRUE(Tracer::Global().CollectSpans().empty());
}

TEST_F(TracerTest, RecordsSpansWithNamesPhasesAndNesting) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.SetSimNow(12.5);
  tracer.SetCycle(3);
  {
    TS_OBS_SPAN("test.outer", Phase::kSolve);
    {
      TS_OBS_SPAN("test.inner", Phase::kPredict);
    }
  }
  tracer.SetEnabled(false);
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  const auto names = tracer.names();
  // Spans are emitted on scope *exit*, so the inner span lands first.
  EXPECT_EQ(names[spans[0].name_id].first, "test.inner");
  EXPECT_EQ(spans[0].phase, static_cast<uint8_t>(Phase::kPredict));
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(names[spans[1].name_id].first, "test.outer");
  EXPECT_EQ(spans[1].phase, static_cast<uint8_t>(Phase::kSolve));
  EXPECT_EQ(spans[1].depth, 0);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.cycle, 3);
    EXPECT_DOUBLE_EQ(s.sim_time, 12.5);
    EXPECT_GE(s.wall_dur, 0.0);
  }
  EXPECT_LT(spans[0].order, spans[1].order);
}

TEST_F(TracerTest, RingWrapDropsOldestAndCounts) {
  Tracer& tracer = Tracer::Global();
  tracer.SetRingCapacity(4);
  tracer.Clear();  // The next span allocates the ring at the new capacity.
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    TS_OBS_SPAN("test.wrap", Phase::kOther);
  }
  tracer.SetEnabled(false);
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The retained spans are the newest, still in emission order.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].order, spans[i - 1].order + 1);
  }
}

TEST_F(TracerTest, ChromeJsonExportIsWellFormedEnough) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.SetSimNow(1.0);
  {
    TS_OBS_SPAN("test.json_span", Phase::kBuild);
  }
  tracer.SetEnabled(false);
  std::ostringstream os;
  tracer.ExportChromeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"build\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TracerTest, BinaryExportDeterministicUpToTiming) {
  // Two separately recorded identical traces must differ only in the
  // quarantined wall-clock section.
  const auto record_once = [] {
    ResetAll();
    Tracer& tracer = Tracer::Global();
    tracer.SetEnabled(true);
    tracer.SetSimNow(2.0);
    tracer.SetCycle(1);
    {
      TS_OBS_SPAN("test.bin_a", Phase::kCapacity);
    }
    {
      TS_OBS_SPAN("test.bin_b", Phase::kSolve);
    }
    tracer.SetEnabled(false);
    SnapshotWriter writer;
    tracer.ExportBinary(writer);
    return writer.Finish();
  };
  const std::string first = record_once();
  const std::string second = record_once();
  const std::vector<std::string> differing =
      DiffSnapshotSections(first, second, {"trace_timing"});
  EXPECT_TRUE(differing.empty())
      << "deterministic trace sections differ: " << differing.front();
  // Sanity: the sections are present and framed.
  SnapshotReader reader(first);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.PeekSectionName(), "trace_names");
}

TEST_F(ProfilerTest, RowsAccumulatePhasesAndFoldPending) {
  CycleProfiler& prof = CycleProfiler::Global();
  prof.SetEnabled(true);
  // Phase time before any cycle goes to the pending row.
  prof.AddPhase(Phase::kSimEvents, 0.25);
  prof.BeginCycle(0, 10.0);
  prof.AddPhase(Phase::kSolve, 0.5);
  prof.AddPhase(Phase::kSolve, 0.25);
  prof.AddPhase(Phase::kBuild, 0.125);
  prof.EndCycle(CycleTelemetry{1.0});
  prof.SetEnabled(false);
  ASSERT_EQ(prof.rows().size(), 1u);
  const CyclePhaseRow& row = prof.rows()[0];
  EXPECT_EQ(row.cycle, 0);
  EXPECT_DOUBLE_EQ(row.sim_time, 10.0);
  EXPECT_DOUBLE_EQ(row.phase_seconds[static_cast<size_t>(Phase::kSimEvents)], 0.25);
  EXPECT_DOUBLE_EQ(row.phase_seconds[static_cast<size_t>(Phase::kSolve)], 0.75);
  EXPECT_DOUBLE_EQ(row.phase_seconds[static_cast<size_t>(Phase::kBuild)], 0.125);
  EXPECT_DOUBLE_EQ(row.cycle_seconds, 1.0);
  EXPECT_DOUBLE_EQ(row.sched_phase_seconds(), 0.875);
}

TEST_F(ProfilerTest, CsvHasHeaderAndOneRowPerCycle) {
  CycleProfiler& prof = CycleProfiler::Global();
  prof.SetEnabled(true);
  for (int64_t c = 0; c < 3; ++c) {
    prof.BeginCycle(c, c * 10.0);
    prof.AddPhase(Phase::kValuation, 0.001);
    prof.EndCycle(CycleTelemetry{0.002});
  }
  prof.SetEnabled(false);
  std::ostringstream os;
  prof.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("cycle,sim_time,", 0), 0u);
  EXPECT_NE(csv.find("sched_phase_sum_s,cycle_seconds"), std::string::npos);
  int lines = 0;
  for (char ch : csv) {
    lines += ch == '\n';
  }
  EXPECT_EQ(lines, 4);  // Header + 3 rows.
}

TEST_F(DecisionLogTest, CsvStringIsExact) {
  DecisionLog& log = DecisionLog::Global();
  log.SetEnabled(true);
  DecisionRecord a;
  a.cycle = 0;
  a.sim_time = 10.0;
  a.pending = 3;
  a.running = 1;
  a.starts = {{7, 0}, {9, 2}};
  log.Record(a);
  DecisionRecord b;
  b.cycle = 1;
  b.sim_time = 20.0;
  b.pending = 1;
  b.running = 3;
  b.preempts = {7};
  b.abandons = {4};
  b.deferred = {{9, 1}};
  log.Record(b);
  log.SetEnabled(false);
  EXPECT_EQ(log.ToCsvString(),
            "cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n"
            "0,10,3,1,7@0;9@2,,,\n"
            "1,20,1,3,,7,4,9@1\n");
}

TEST_F(FrontDoorTest, SinksAutoEnableFacilities) {
  Options options;
  options.trace_json_out = "/tmp/unused.json";
  Configure(options);
  EXPECT_TRUE(Tracer::enabled());
  EXPECT_TRUE(CurrentOptions().tracing);
  EXPECT_FALSE(DecisionLog::enabled());

  Options off;
  Configure(off);
  EXPECT_FALSE(Tracer::enabled());

  Options decisions;
  decisions.decisions_csv_out = "/tmp/unused.csv";
  Configure(decisions);
  EXPECT_TRUE(DecisionLog::enabled());
  Configure(off);
}

TEST_F(FrontDoorTest, ProfilerImpliesTracerGate) {
  // The profiler is fed by Span::End, so enabling it must open the span gate.
  Options options;
  options.profiler = true;
  Configure(options);
  EXPECT_TRUE(CycleProfiler::enabled());
  EXPECT_TRUE(Tracer::enabled());
  Configure(Options{});
  EXPECT_FALSE(CycleProfiler::enabled());
  EXPECT_FALSE(Tracer::enabled());
}

TEST_F(FrontDoorTest, FlushWritesEverySink) {
  const std::string dir = ::testing::TempDir();
  Options options;
  options.trace_json_out = dir + "/obs_flush_trace.json";
  options.trace_bin_out = dir + "/obs_flush_trace.bin";
  options.phase_csv_out = dir + "/obs_flush_phase.csv";
  options.decisions_csv_out = dir + "/obs_flush_dec.csv";
  options.metrics_out = dir + "/obs_flush_metrics.txt";
  Configure(options);
  {
    TS_OBS_SPAN("test.flush_span", Phase::kSolve);
  }
  CycleProfiler::Global().BeginCycle(0, 0.0);
  CycleProfiler::Global().EndCycle(CycleTelemetry{0.001});
  DecisionLog::Global().Record(DecisionRecord{});
  MetricsRegistry::Global().GetCounter("test.flush_counter")->Increment();
  std::string error;
  ASSERT_TRUE(Flush(&error)) << error;
  for (const std::string& path :
       {options.trace_json_out, options.trace_bin_out, options.phase_csv_out,
        options.decisions_csv_out, options.metrics_out}) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << path;
  }
}

TEST_F(FrontDoorTest, FlushReportsUnwritablePath) {
  Options options;
  options.metrics_out = "/nonexistent-dir-for-obs-test/metrics.txt";
  Configure(options);
  std::string error;
  EXPECT_FALSE(Flush(&error));
  EXPECT_NE(error.find("metrics"), std::string::npos);
}

TEST_F(FrontDoorTest, ApplyEnvOverlaysKnobs) {
  ::setenv("THREESIGMA_OBS_PHASE_CSV", "/tmp/env_phase.csv", 1);
  ::setenv("THREESIGMA_OBS_RING", "1024", 1);
  Options options;
  ApplyEnv(&options);
  ::unsetenv("THREESIGMA_OBS_PHASE_CSV");
  ::unsetenv("THREESIGMA_OBS_RING");
  EXPECT_EQ(options.phase_csv_out, "/tmp/env_phase.csv");
  EXPECT_EQ(options.ring_capacity, 1024);
  EXPECT_TRUE(options.profiler);  // Sink implies facility.
  EXPECT_TRUE(options.any());

  // Unset leaves fields untouched.
  Options untouched;
  untouched.trace_json_out = "keep.json";
  ApplyEnv(&untouched);
  EXPECT_EQ(untouched.trace_json_out, "keep.json");
}

TEST_F(FrontDoorTest, ResetAllDisablesAndClears) {
  Options options;
  options.tracing = true;
  options.profiler = true;
  options.decisions = true;
  Configure(options);
  {
    TS_OBS_SPAN("test.reset_span", Phase::kSolve);
  }
  CycleProfiler::Global().BeginCycle(0, 0.0);
  CycleProfiler::Global().EndCycle(CycleTelemetry{0.001});
  DecisionLog::Global().Record(DecisionRecord{});
  MetricsRegistry::Global().GetCounter("test.resetall_counter")->Increment();
  ResetAll();
  EXPECT_FALSE(Tracer::enabled());
  EXPECT_FALSE(CycleProfiler::enabled());
  EXPECT_FALSE(DecisionLog::enabled());
  EXPECT_TRUE(Tracer::Global().CollectSpans().empty());
  EXPECT_TRUE(CycleProfiler::Global().rows().empty());
  EXPECT_TRUE(DecisionLog::Global().records().empty());
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.resetall_counter")->Value(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace threesigma
