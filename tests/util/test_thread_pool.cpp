#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace emorphic {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForWaitsForEveryTaskBeforeRethrowing) {
  // The tasks reference the caller's frame, so the first failure must not
  // unwind it while other tasks still run.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("0");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(1));
                                   ++finished;
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 15);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, TasksCanSubmitWork) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.parallel_for(8, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A task that calls parallel_for on its own pool used to deadlock: the
  // outer tasks occupy every worker while each waits for inner work that no
  // free worker exists to run. The guard detects re-entry from a worker
  // thread and runs the loop body inline instead.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, NestedSubmitRunsInline) {
  ThreadPool pool(1);  // one worker: a blocking nested wait can never finish
  std::atomic<int> value{0};
  auto outer = pool.submit([&] {
    auto inner = pool.submit([&] { value.store(42); });
    // Safe to block on: the guard already ran the inner task inline.
    inner.get();
  });
  outer.get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(32);
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 6; ++t) {  // more tasks than workers
    futures.push_back(pool.submit(
        [&] { pool.parallel_for(32, [&](std::size_t i) { ++hits[i]; }); }));
  }
  for (auto& f : futures) f.get();
  for (auto& h : hits) EXPECT_EQ(h.load(), 6);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must wait for queued tasks before joining
  EXPECT_EQ(counter.load(), 16);
}

}  // namespace
}  // namespace emorphic
