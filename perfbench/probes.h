// Measurement probes of the end-to-end benchmark.
//
// Everything here lives outside the program: the benchmark records its
// per-layer numbers by wrapping the public RuntimePredictor and Scheduler
// interfaces and by timing the calls it makes into the simulator, service
// and what-if engine. The wrappers forward every call unchanged (including
// the snapshot hooks, so checkpoints and what-if forks see the exact bytes
// the bare scheduler writes); they only add steady_clock reads and counters.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/predict/predictor.h"
#include "src/sched/scheduler.h"

namespace perfbench {

// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A bag of timing samples (run.py takes the percentiles).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// Forwards to `inner`, counting Predict calls.
class CountingPredictor : public threesigma::RuntimePredictor {
 public:
  explicit CountingPredictor(threesigma::RuntimePredictor* inner) : inner_(inner) {}

  threesigma::RuntimePrediction Predict(const threesigma::JobFeatures& features,
                                        double true_runtime) override {
    ++calls_;
    return inner_->Predict(features, true_runtime);
  }
  void RecordCompletion(const threesigma::JobFeatures& features, double runtime) override {
    inner_->RecordCompletion(features, runtime);
  }
  void SaveState(threesigma::SnapshotWriter& writer) const override { inner_->SaveState(writer); }
  void RestoreState(threesigma::SnapshotReader& reader) override { inner_->RestoreState(reader); }

  int64_t calls() const { return calls_; }

 private:
  threesigma::RuntimePredictor* inner_;
  int64_t calls_ = 0;
};

// Deterministic work counts of one instance; two runs of one seed must agree.
struct WorkCounts {
  int64_t cycles = 0;   // RunCycle calls.
  int64_t solves = 0;   // Cycles that built a MILP.
  int64_t bnb_nodes = 0;
  int64_t milp_vars_max = 0;
  int64_t milp_rows_max = 0;
  int64_t valuation_kernel_calls = 0;
  int64_t valuation_cache_hits = 0;
  int64_t valuation_cache_misses = 0;
  int64_t capacity_cache_hits = 0;
  int64_t capacity_cache_misses = 0;
  int64_t predict_calls = 0;
  int64_t arrivals = 0;
  int64_t sim_steps = 0;
  int64_t rpcs = 0;
  int64_t retry_later = 0;
  int64_t queue_depth_max = 0;
  int64_t snapshot_bytes = 0;
  int64_t speculative_cycles = 0;

  struct Item {
    std::string name;
    int64_t value;
    // False for snapshot.bytes: the snapshot's metrics section carries
    // wall-clock latency histograms, whose varint sizes vary by a few bytes.
    bool exact;
  };
  // Every count in a fixed order (printing and comparison).
  std::vector<Item> Items() const;
};

// Forwards to `inner`. RunCycle is always timed (cycle latency is an
// end-to-end metric); OnJobArrival is timed too, since it is the batch
// workloads' submission path. Hook time is accumulated so the caller can
// split a simulator step into scheduler time and the simulator's own time.
class TimedScheduler : public threesigma::Scheduler {
 public:
  TimedScheduler(threesigma::Scheduler* inner, WorkCounts* counts) : inner_(inner), counts_(counts) {}

  void OnJobArrival(const threesigma::JobSpec& spec, threesigma::Time now) override;
  void OnJobStarted(threesigma::JobId id, int group, threesigma::Time now) override;
  void OnJobFinished(threesigma::JobId id, threesigma::Time now,
                     threesigma::Duration observed_runtime) override;
  void OnJobPreempted(threesigma::JobId id, threesigma::Time now) override;
  void OnJobFaultKilled(threesigma::JobId id, threesigma::Time now) override;
  void OnJobCancelled(threesigma::JobId id, threesigma::Time now) override;
  void OnCapacityChanged(int group, int available_nodes, threesigma::Time now) override;
  threesigma::CycleResult RunCycle(threesigma::Time now,
                                   const threesigma::ClusterStateView& state) override;
  std::string name() const override { return inner_->name(); }
  void SaveState(threesigma::SnapshotWriter& writer) const override { inner_->SaveState(writer); }
  void RestoreState(threesigma::SnapshotReader& reader) override { inner_->RestoreState(reader); }

  // Per-call samples.
  Samples cycle_ms;      // RunCycle wall time.
  Samples arrival_us;    // OnJobArrival wall time.
  Samples solve_ms;      // Scheduler-reported solver time of cycles that solved.
  double solve_seconds = 0.0;
  // Total wall time spent inside any hook.
  double hook_seconds = 0.0;

 private:
  threesigma::Scheduler* inner_;
  WorkCounts* counts_;
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// FNV-1a, 64 bit.
class Fnv {
 public:
  void Add(const void* data, size_t size);
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
