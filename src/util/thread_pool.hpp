#pragma once
// Fixed-size worker pool: the partitioned flow runs one window per task
// (PartitionParams::num_threads), the saturation runner one rule's search
// per task (RunnerParams::match_threads), and SA one annealing chain per
// task (SaParams::num_threads).
// docs/architecture.md ("Parallelism") lists every thread knob.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace emorphic {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future resolves when it completes.
  /// Called from inside one of this pool's own workers, the task runs
  /// inline instead (the future returns already resolved): queueing and
  /// waiting from a worker can deadlock — every worker may end up blocked
  /// in get() with the queued work behind it in the queue.
  std::future<void> submit(std::function<void()> task);

  /// Run `fn(i)` for i in [0, n) across the pool and wait for all of them;
  /// then rethrow the first (lowest-index) exception a task threw.
  /// From inside one of this pool's own workers the loop runs inline on the
  /// calling worker (same nested-invocation deadlock guard as submit; the
  /// nested path is exercised by tests/util/test_thread_pool.cpp).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace emorphic
