#include "util/thread_pool.hpp"

namespace emorphic {

namespace {
// The pool (if any) whose worker_loop owns the calling thread. A thread
// belongs to at most one pool for its whole life, so a plain pointer is
// enough to detect re-entrant submit/parallel_for and run inline instead of
// deadlocking on a queue no free worker will ever drain.
thread_local ThreadPool* tl_owning_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() const { return tl_owning_pool == this; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  if (on_worker_thread()) {
    // Nested submission from our own worker: run inline. Queueing would
    // risk deadlock once callers wait on the future while occupying the
    // worker slot the task needs.
    packaged();
    return fut;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (on_worker_thread()) {
    // Nested parallel_for (a task fanning out on the pool that runs it):
    // the serial fallback keeps the result identical and cannot deadlock.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Wait for every task before get() rethrows the first failure: the tasks
  // reference `fn` and the caller's frame, which unwinding would free.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
}

void ThreadPool::worker_loop() {
  tl_owning_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace emorphic
