// Fixed-size worker pool for data-parallel loops.
//
// Used by the digital twin's what-if engine to step one forked simulation
// per scenario concurrently (src/twin). Workers are persistent, so each
// sweep's batch dispatch is one mutex round-trip, not N thread spawns. The calling thread participates as worker 0, so a pool of size N
// uses N - 1 background threads and a pool of size 1 degenerates to a plain
// loop with no locking at all.
//
// Indices are handed out through a shared atomic cursor — a lock-free work
// queue — so uneven item costs (scenarios speculate for different numbers of
// cycles) balance across workers automatically. Batch state is heap-shared so a straggling
// worker that wakes after a batch drained only ever observes an exhausted
// cursor; it can never touch the next batch's state by accident.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace threesigma {

class ThreadPool {
 public:
  // `num_threads` is the total worker count including the caller; values < 1
  // are clamped to 1 (no background threads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()) + 1; }

  // Runs fn(worker, index) for every index in [0, n), distributing indices
  // over `size()` workers; `worker` in [0, size()) identifies the executing
  // worker so callers can keep per-worker scratch state. Blocks until all n calls returned. Not reentrant and not
  // thread-safe: one ParallelFor at a time.
  void ParallelFor(int n, const std::function<void(int worker, int index)>& fn);

 private:
  struct Batch {
    const std::function<void(int, int)>* fn = nullptr;
    int size = 0;
    std::atomic<int> next{0};       // Shared work cursor.
    std::atomic<int> remaining{0};  // Items not yet finished.
  };

  void WorkerLoop(int worker);
  // Pulls indices from the batch cursor until it is exhausted.
  void RunBatch(Batch& batch, int worker);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::shared_ptr<Batch> batch_;  // Current batch; kept alive for stragglers.
  uint64_t epoch_ = 0;            // Bumped per batch so workers enter each once.
  bool shutdown_ = false;
};

}  // namespace threesigma

#endif  // SRC_COMMON_THREAD_POOL_H_
