// Fixed-size worker pool. Used by the TaskGraph executor (concurrent matrix
// ops of paper Fig. 6), by ReplicaGroup (one data-parallel replica per
// worker) and by InferenceServer (batch workers). OpenMP owns the data-parallel loops; this pool owns *task* parallelism, so
// the two never fight over the same iteration space.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace deepphi::par {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). Default: hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn`; the returned future observes completion and propagates
  /// exceptions thrown by `fn`.
  std::future<void> submit(std::function<void()> fn);

  /// Blocks until the queue is empty and all workers are idle. Throws
  /// util::Error when called from one of this pool's own worker threads: the
  /// calling task counts as active, so the wait could never be satisfied —
  /// failing fast replaces a silent deadlock. Tasks that need to observe
  /// other tasks' completion should hold their submit() futures instead.
  void wait_idle();

  /// True when the calling thread is one of this pool's workers (the
  /// nested-wait_idle guard; also useful for assertions in task code).
  bool on_worker_thread() const;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Number of tasks executed since construction (tests/diagnostics).
  std::uint64_t tasks_executed() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  unsigned active_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_ = false;
};

}  // namespace deepphi::par
