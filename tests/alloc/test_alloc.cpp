// Steady-state allocation gates: once warm, the loops that reuse their
// structures stop touching the allocator. Two counters, two failure modes:
//  * a global operator new/delete replacement counts every C++ heap
//    allocation in this binary (the repo's only such counter);
//  * emorphic::arena_block_allocs() counts the bump arenas' block mallocs
//    (compiled in under EMORPHIC_CHECKS; reads 0 otherwise), so a warm
//    epoch must reuse its coalesced blocks instead of growing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "../test_helpers.hpp"
#include "aig/cut.hpp"
#include "benchgen/arith.hpp"
#include "egraph/egraph.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "extract/extractor.hpp"
#include "flow/conversion.hpp"
#include "flow/pipeline.hpp"
#include "flow/warm_cache.hpp"
#include "util/arena.hpp"

// The replacements are malloc/free based (a replaced new must pair with a
// replaced delete); only the plain-alignment forms are counted — over-aligned
// allocations are rare and under-counting them only makes the gates
// stricter. The arenas call std::malloc directly, so their block traffic is
// deliberately not counted here: that is what arena_block_allocs() tracks.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace emorphic {
namespace {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Runs `fn` `warmup + iters` times and asserts that none of the last
/// `iters` runs allocates: no heap allocation and no arena block malloc.
template <typename Fn>
void expect_allocation_free_when_warm(int warmup, int iters, Fn&& fn) {
  std::vector<std::uint64_t> allocs;
  for (int i = 0; i < warmup + iters; ++i) {
    const std::uint64_t heap0 = heap_allocs();
    const std::uint64_t blocks0 = arena_block_allocs();
    fn();
    const std::uint64_t blocks = arena_block_allocs() - blocks0;
    if (i < warmup) continue;
    allocs.push_back(heap_allocs() - heap0);
    EXPECT_EQ(blocks, 0u) << "warm run " << i << " grew an arena";
  }
  for (std::size_t i = 0; i < allocs.size(); ++i) {
#ifdef EMORPHIC_CHECKS
    // EM_CHECK_EXPENSIVE deep-validates inside the loop and allocates by
    // design; in that build the heap count must be flat instead of zero.
    EXPECT_EQ(allocs[i], allocs[0]) << "warm run " << i;
#else
    EXPECT_EQ(allocs[i], 0u) << "warm run " << i;
#endif
  }
}

TEST(Alloc, EGraphKernelsAreAllocationFreeWhenWarm) {
  // Build, merge, rebuild, clear on one reused EGraph: every container keeps
  // its capacity across clear(), and rebuild()'s epoch reclaim ping-pongs
  // between two warm arenas, so even compaction allocates nothing.
  EGraph eg;
  std::vector<EClassId> classes;
  classes.reserve(1600);  // the loop's own bookkeeping must not count
  expect_allocation_free_when_warm(3, 5, [&] {
    eg.clear();
    Rng rng(17);
    classes.clear();
    for (std::uint32_t i = 0; i < 64; ++i) classes.push_back(eg.add_var(i));
    for (int i = 0; i < 1500; ++i) {
      EClassId a = classes[rng.next_below(classes.size())];
      EClassId b = classes[rng.next_below(classes.size())];
      classes.push_back(eg.add_and(a, b));
    }
    for (int i = 0; i < 40; ++i) {
      eg.merge(classes[rng.next_below(64)], classes[rng.next_below(64)]);
    }
    eg.rebuild();
  });
}

TEST(Alloc, CutEnumerationIsAllocationFreeWhenWarm) {
  // The SA evaluator's pattern: every enumeration through one reused
  // CutArena is an arena epoch.
  Aig aig = testing::random_aig_tail_pos(16, 2000, 23);
  CutArena arena;
  expect_allocation_free_when_warm(2, 5, [&] {
    CutManager cuts(aig, CutParams{}, &arena);
  });
}

/// One SA chain's pattern: a view compiled once and one scratch reused by
/// every move. Warm, an Algorithm 1 pass allocates only the Extraction it
/// returns, a one-pass dag_refine only its candidate (the incumbent moves
/// in), and the solution walks nothing at all.
TEST(Alloc, ExtractionKernelReusesScratch) {
  CircuitEGraph ce = aig_to_egraph(make_adder(6));
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 6000;
  limits.time_limit_s = 1e9;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  const ExtractView view(ce.egraph);
  ExtractScratch scratch;
  const CostModel depth{CostKind::kDepth};
  const CostModel size{CostKind::kSize};
  Extraction current = greedy_extract(view, depth, scratch);
  Rng rng(3);
  BottomUpOptions options;
  options.p_random = 0.15;
  options.rng = &rng;
  options.warm_start = &current;

  auto move = [&](const CostModel& proxy, std::uint64_t* pass_allocs,
                  std::uint64_t* refine_allocs, std::uint64_t* walk_allocs) {
    options.cost = &proxy;
    std::uint64_t before = heap_allocs();
    Extraction candidate = bottom_up_extract(view, options, scratch);
    *pass_allocs = heap_allocs() - before;
    before = heap_allocs();
    Extraction refined =
        dag_refine(view, std::move(candidate), size, ce.roots, scratch, 1);
    *refine_allocs = heap_allocs() - before;
    before = heap_allocs();
    const bool ok = solution_is_well_founded(view, refined, ce.roots, scratch);
    const double cost = solution_cost(view, refined, size, ce.roots, scratch);
    *walk_allocs = heap_allocs() - before;
    EXPECT_TRUE(ok);
    EXPECT_GT(cost, 0.0);
  };

  std::uint64_t pass = 0, refine = 0, walk = 0;
  move(depth, &pass, &refine, &walk);  // warm-up: sizes the scratch
  for (int i = 0; i < 4; ++i) {
    for (const CostModel* proxy : {&depth, &size}) {
      move(*proxy, &pass, &refine, &walk);
      EXPECT_EQ(pass, 1u) << "move " << i;
      EXPECT_EQ(refine, 1u) << "move " << i;
      EXPECT_EQ(walk, 0u) << "move " << i;
    }
  }
}

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;  // determinism needs limit-free runs
  // Single-threaded SA: allocation counts are deterministic, so "flat" can
  // be exact.
  params.sa.num_threads = 1;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  return params;
}

/// The service worker's steady state: one long-lived FlowContext per
/// worker, rebound to job after job — exactly what SynthServer::worker_loop
/// does. Repeated identical jobs must (a) stay bit-identical, and (b) stop
/// allocating once warm: the context's mapper workspaces (cut arenas, DP
/// state), the shared matcher, and the QoR memo all persist, so a warm job
/// re-walks warm storage.
TEST(WarmCache, WorkerContextReuseIsFlatAndDeterministic) {
  Aig input = make_adder(6);
  Pipeline pipeline = Pipeline::emorphic();
  FlowParams params = quick_params();

  WarmCache cache;
  FlowContext ctx;  // the per-worker context, reused across jobs
  std::atomic<bool> cancel{false};

  std::vector<FlowQor> qors;
  std::vector<std::uint64_t> allocs;
  for (int job = 0; job < 5; ++job) {
    ctx.params = params;
    cache.prepare(ctx);
    ctx.input = input;
    ctx.seed = 1;
    ctx.cancel = &cancel;
    std::uint64_t before = heap_allocs();
    FlowResult result = pipeline.run(ctx);
    allocs.push_back(heap_allocs() - before);
    qors.push_back(result.qor);
  }

  for (std::size_t i = 1; i < qors.size(); ++i) {
    EXPECT_EQ(qors[0].area, qors[i].area) << "job " << i;
    EXPECT_EQ(qors[0].delay, qors[i].delay) << "job " << i;
    EXPECT_EQ(qors[0].lev, qors[i].lev) << "job " << i;
  }

  // Warm jobs allocate strictly less than the cold one (the workspaces and
  // memo absorbed the bulk), and the count is flat once the memo saturates:
  // jobs 3 and 4 re-run identical warm state, so their counts are equal.
  EXPECT_LT(allocs[1], allocs[0]);
  EXPECT_EQ(allocs[3], allocs[4]) << "steady-state allocation count drifts";
  EXPECT_LE(allocs[4], allocs[1]);
}

}  // namespace
}  // namespace emorphic
