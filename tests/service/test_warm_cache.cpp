// WarmCache: the shared substrate the synthesis service warms across runs.
// The load-bearing test is the determinism gate: N threads through one
// WarmCache produce bit-identical results to serial, cold runs — sharing
// the matcher and QoR memo must never change answers.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "flow/warm_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;  // determinism needs limit-free runs
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  return params;
}

std::vector<Aig> test_circuits() {
  std::vector<Aig> circuits;
  circuits.push_back(make_adder(6));
  circuits.push_back(make_arbiter(4));
  circuits.push_back(make_square(4));
  circuits.push_back(make_adder(8));
  return circuits;
}

/// Every circuit through `pipeline`, one context per task on a
/// `threads`-worker pool: circuit i is seeded derive_seed(1, i), and with a
/// cache each context is prepared from it.
std::vector<FlowResult> run_all(const std::vector<Aig>& circuits,
                                const Pipeline& pipeline,
                                const FlowParams& params, unsigned threads,
                                WarmCache* cache = nullptr) {
  std::vector<FlowResult> results(circuits.size());
  ThreadPool pool(threads);
  pool.parallel_for(circuits.size(), [&](std::size_t i) {
    FlowContext ctx;
    ctx.params = params;
    if (cache != nullptr) cache->prepare(ctx);
    ctx.input = circuits[i];
    ctx.seed = derive_seed(1, i);
    results[i] = pipeline.run(ctx);
  });
  return results;
}

TEST(WarmCache, SharesOneMatcherPerLibrary) {
  WarmCache cache;
  const CellLibrary& lib = CellLibrary::asap7_like();
  auto a = cache.matcher_for(lib);
  auto b = cache.matcher_for(lib);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().matchers, 1u);
}

TEST(WarmCache, ConcurrentMatcherRequestsConverge) {
  WarmCache cache;
  const CellLibrary& lib = CellLibrary::asap7_like();
  std::vector<std::shared_ptr<const Matcher>> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = cache.matcher_for(lib); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
  EXPECT_EQ(cache.stats().matchers, 1u);
}

TEST(WarmCache, FlowResultCacheHitsAndCounts) {
  WarmCache cache;
  Aig adder = make_adder(4);
  std::uint64_t key = WarmCache::flow_key(adder, 1, 42);

  CachedFlow out;
  EXPECT_FALSE(cache.lookup_flow(key, &out));

  CachedFlow stored;
  stored.qor.area = 12.5;
  stored.qor.delay = 80.0;
  stored.final_aig = adder;
  stored.verify_status = CecStatus::kEquivalent;
  cache.insert_flow(key, stored);

  ASSERT_TRUE(cache.lookup_flow(key, &out));
  EXPECT_DOUBLE_EQ(out.qor.area, 12.5);
  EXPECT_EQ(out.verify_status, CecStatus::kEquivalent);

  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_entries, 1u);
}

TEST(WarmCache, FlowKeySeparatesInputsSeedsAndParams) {
  Aig adder = make_adder(4);
  Aig arbiter = make_arbiter(4);
  std::uint64_t base = WarmCache::flow_key(adder, 1, 42);
  EXPECT_NE(base, WarmCache::flow_key(arbiter, 1, 42));
  EXPECT_NE(base, WarmCache::flow_key(adder, 2, 42));
  EXPECT_NE(base, WarmCache::flow_key(adder, 1, 43));
  EXPECT_EQ(base, WarmCache::flow_key(make_adder(4), 1, 42));
}

/// The determinism gate (ISSUE satellite): N worker threads sharing one
/// WarmCache — concurrent QoR memo and matcher use — must produce
/// bit-identical FlowQor to a serial, cache-free run of the same batch.
TEST(WarmCache, ConcurrentSharingIsBitIdenticalToSerial) {
  std::vector<Aig> circuits = test_circuits();
  Pipeline pipeline = Pipeline::emorphic();
  FlowParams params = quick_params();

  std::vector<FlowResult> reference = run_all(circuits, pipeline, params, 1);

  WarmCache cache;
  std::vector<FlowResult> warm = run_all(circuits, pipeline, params, 4, &cache);

  ASSERT_EQ(reference.size(), warm.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].qor.area, warm[i].qor.area) << "circuit " << i;
    EXPECT_EQ(reference[i].qor.delay, warm[i].qor.delay) << "circuit " << i;
    EXPECT_EQ(reference[i].qor.lev, warm[i].qor.lev) << "circuit " << i;
  }
  // The shared memo saw traffic (the gate is vacuous otherwise).
  WarmCacheStats stats = cache.stats();
  EXPECT_GT(stats.qor_hits + stats.qor_misses, 0u);
}

/// Re-running the circuits against an already-warm cache — the service's
/// steady state — still changes nothing.
TEST(WarmCache, WarmReRunsStayIdentical) {
  std::vector<Aig> circuits = test_circuits();
  Pipeline pipeline = Pipeline::emorphic();
  FlowParams params = quick_params();

  WarmCache cache;
  std::vector<FlowResult> first = run_all(circuits, pipeline, params, 2, &cache);
  WarmCacheStats after_first = cache.stats();
  std::vector<FlowResult> second =
      run_all(circuits, pipeline, params, 2, &cache);
  WarmCacheStats after_second = cache.stats();

  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].qor.area, second[i].qor.area);
    EXPECT_EQ(first[i].qor.delay, second[i].qor.delay);
    EXPECT_EQ(first[i].qor.lev, second[i].qor.lev);
  }
  // The second pass re-visits structures the first one mapped.
  EXPECT_GT(after_second.qor_hits, after_first.qor_hits);
}

TEST(WarmCache, ClearResetsEverything) {
  WarmCache cache;
  cache.matcher_for(CellLibrary::asap7_like());
  CachedFlow flow;
  cache.insert_flow(1, flow);
  cache.clear();
  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.matchers, 0u);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.qor_entries, 0u);
}

}  // namespace
}  // namespace emorphic
