#include "extract/sa_extractor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "extract/qor_memo.hpp"
#include "flow/conversion.hpp"
#include "flow/pipeline.hpp"

namespace emorphic {
namespace {

/// A deterministic, cheap stand-in QoR evaluator: proxy for the tests so SA
/// runs fast. Cost = depth-like metric + small area term.
class ProxyEvaluator : public QorEvaluator {
 public:
  Qor evaluate(const Aig& candidate) const override {
    return Qor{static_cast<double>(candidate.num_ands()),
               static_cast<double>(candidate.num_levels()) * 10.0};
  }
};

struct SaFixture : public ::testing::Test {
  void SetUp() override {
    Rng rng(71);
    original = testing::random_aig(6, 3, 40, rng);
    ce = aig_to_egraph(original);
    RunnerParams limits;
    limits.max_iterations = 3;
    limits.max_enodes = 10000;
    run_rewriting(ce.egraph, make_logic_rules(), limits);
  }

  Aig original;
  CircuitEGraph ce;
};

TEST_F(SaFixture, ProducesFunctionallyEquivalentBest) {
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 2;
  params.iterations = 2;
  params.moves_per_iteration = 3;
  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  Aig best = egraph_to_aig(ce, result.best);
  EXPECT_TRUE(testing::functionally_equal(original, best));
  EXPECT_GT(result.evaluations, 0u);
}

TEST_F(SaFixture, BestNeverWorseThanGreedyInit) {
  // Thread 0 starts from greedy-depth; SA only replaces the incumbent on
  // accept, and the best-tracker keeps the minimum, so the final cost is
  // <= the greedy initial cost.
  ProxyEvaluator eval;
  Extraction greedy = greedy_extract(ce.egraph, CostModel{CostKind::kDepth});
  Aig greedy_aig = egraph_to_aig(ce, greedy);
  double greedy_cost = eval.cost(eval.evaluate(greedy_aig));

  SaParams params;
  params.num_threads = 1;  // thread 0 = greedy depth init
  params.iterations = 3;
  params.moves_per_iteration = 4;
  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  EXPECT_LE(result.best_cost, greedy_cost + 1e-9);
}

TEST_F(SaFixture, DeterministicForFixedSeed) {
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 2;
  params.iterations = 2;
  params.moves_per_iteration = 3;
  params.seed = 99;
  SaResult r1 = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  SaResult r2 = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  EXPECT_DOUBLE_EQ(r1.best_cost, r2.best_cost);
  EXPECT_DOUBLE_EQ(r1.best_qor.area, r2.best_qor.area);
}

TEST_F(SaFixture, TraceRecordsTemperatureSchedule) {
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 1;
  params.iterations = 4;
  params.moves_per_iteration = 2;
  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  ASSERT_FALSE(result.trace.empty());
  // Iteration 1 runs at T1 = 2000; later iterations never exceed it.
  for (const SaTracePoint& pt : result.trace) {
    if (pt.iteration == 1) {
      EXPECT_DOUBLE_EQ(pt.temperature, params.initial_temperature);
    } else {
      EXPECT_LE(pt.temperature, params.initial_temperature);
    }
  }
}

TEST_F(SaFixture, MultiThreadBeatsOrMatchesSingleThreadGivenSameBudget) {
  ProxyEvaluator eval;
  SaParams one;
  one.num_threads = 1;
  one.iterations = 2;
  one.moves_per_iteration = 3;
  SaParams four = one;
  four.num_threads = 4;
  double c1 = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, one).best_cost;
  double c4 = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, four).best_cost;
  EXPECT_LE(c4, c1 + 1e-9);  // more chains can only improve the best
}

TEST_F(SaFixture, PruningStatsAccumulate) {
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 1;
  params.iterations = 2;
  params.moves_per_iteration = 2;
  SaResult pruned = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  EXPECT_GT(pruned.extract_stats.enodes_visited, 0u);
}

TEST_F(SaFixture, MemoizedQorEqualsRecomputedQor) {
  // The per-run Qor memo must never change the annealing outcome: cached
  // entries are the evaluator's own earlier answers, keyed by the
  // candidate's structural signature.
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 2;
  params.iterations = 3;
  params.moves_per_iteration = 6;
  params.seed = 17;

  params.memoize_qor = false;
  SaResult plain = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  EXPECT_EQ(plain.qor_cache_hits, 0u);
  EXPECT_EQ(plain.qor_cache_misses, 0u);

  params.memoize_qor = true;
  SaResult memo = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);

  EXPECT_DOUBLE_EQ(plain.best_cost, memo.best_cost);
  EXPECT_DOUBLE_EQ(plain.best_qor.area, memo.best_qor.area);
  EXPECT_DOUBLE_EQ(plain.best_qor.delay, memo.best_qor.delay);
  EXPECT_EQ(plain.trace.size(), memo.trace.size());
  // Same number of candidates were scored; the memo only changes who
  // answered. Every evaluator call is a memo miss.
  EXPECT_EQ(memo.qor_cache_hits + memo.qor_cache_misses, plain.evaluations);
  EXPECT_EQ(memo.qor_cache_misses, memo.evaluations);
  EXPECT_GT(memo.qor_cache_misses, 0u);
}

TEST(SaMapped, MemoizedQorEqualsRecomputedOnBenchgenCircuit) {
  // End-to-end variant over the real mapping evaluator on a benchgen
  // circuit: cached Qor == recomputed Qor, and a densely-explored small
  // e-graph actually produces hits.
  Aig adder = make_adder(5);
  CircuitEGraph ce = aig_to_egraph(adder);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 2000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  MapQorEvaluator eval(CellLibrary::asap7_like());
  SaParams params;
  params.num_threads = 2;
  params.iterations = 3;
  params.moves_per_iteration = 10;
  params.seed = 23;

  params.memoize_qor = false;
  SaResult plain = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  params.memoize_qor = true;
  SaResult memo = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);

  EXPECT_DOUBLE_EQ(plain.best_cost, memo.best_cost);
  EXPECT_DOUBLE_EQ(plain.best_qor.area, memo.best_qor.area);
  EXPECT_DOUBLE_EQ(plain.best_qor.delay, memo.best_qor.delay);
  EXPECT_EQ(plain.trace.size(), memo.trace.size());
  EXPECT_EQ(memo.qor_cache_hits + memo.qor_cache_misses, plain.evaluations);
  EXPECT_GT(memo.qor_cache_hits, 0u);
  EXPECT_LT(memo.evaluations, plain.evaluations);

  // The memoized winner is still a valid extraction of the input.
  Aig best = egraph_to_aig(ce, memo.best);
  EXPECT_TRUE(testing::functionally_equal(adder, best));
}

/// Chains that reach one structure at once used to race between the
/// memo's lookup and its insert, so the evaluation count moved with thread
/// timing. A miss now claims its key before evaluating, so every count is
/// exact, and every miss, the final polish's included, lands in the memo.
TEST(SaMapped, MemoCountsAreIndependentOfThreadTiming) {
  Aig adder = make_adder(5);
  CircuitEGraph ce = aig_to_egraph(adder);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 2000;
  limits.time_limit_s = 1e9;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  MapQorEvaluator eval(CellLibrary::asap7_like());
  SaParams params;
  params.num_threads = 4;  // chains 0 and 3 start from the same solution
  params.iterations = 3;
  params.moves_per_iteration = 6;
  params.seed = 23;

  SaResult first;
  for (int run = 0; run < 20; ++run) {
    QorMemo memo;
    SaHooks hooks;
    hooks.qor_memo = &memo;
    SaResult r = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params,
                            hooks);
    EXPECT_EQ(memo.in_flight(), 0u) << "run " << run;
    EXPECT_EQ(memo.size(), r.qor_cache_misses) << "run " << run;
    EXPECT_EQ(r.evaluations, r.qor_cache_misses) << "run " << run;
    if (run == 0) {
      first = r;
      EXPECT_GT(first.qor_cache_hits, 0u);
      continue;
    }
    EXPECT_EQ(r.evaluations, first.evaluations) << "run " << run;
    EXPECT_EQ(r.qor_cache_hits, first.qor_cache_hits) << "run " << run;
    EXPECT_EQ(r.qor_cache_misses, first.qor_cache_misses) << "run " << run;
    EXPECT_EQ(r.best.raw(), first.best.raw()) << "run " << run;
    EXPECT_EQ(r.best_cost, first.best_cost) << "run " << run;
  }
}

/// The claimant of a key throws while others wait on its claim: the claim
/// is withdrawn, exactly one waiter claims the key next and evaluates it,
/// and the rest are answered from its result.
TEST(QorMemo, ThrowingEvaluatorWithdrawsItsClaim) {
  QorMemo memo;
  std::atomic<int> calls{0};
  std::atomic<int> thrown{0};
  std::atomic<int> answered{0};
  auto evaluate = [&] {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("evaluator failed");
    }
    return Qor{1.0, 2.0};
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      bool hit = false;
      try {
        Qor qor = memo.get_or_evaluate(42, evaluate, &hit);
        EXPECT_EQ(qor.area, 1.0);
        EXPECT_EQ(qor.delay, 2.0);
        ++answered;
      } catch (const std::runtime_error&) {
        ++thrown;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(thrown.load(), 1);
  EXPECT_EQ(answered.load(), 3);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.in_flight(), 0u);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.misses(), 2u);
}

/// A throwing evaluator fails the whole extraction instead of terminating
/// a chain thread, and leaves no claim behind: the same memo serves the
/// next run.
TEST_F(SaFixture, ThrowingEvaluatorFailsTheRunAndLeaksNoClaim) {
  class FailingEvaluator : public QorEvaluator {
   public:
    Qor evaluate(const Aig&) const override {
      throw std::runtime_error("evaluator failed");
    }
  };
  QorMemo memo;
  SaHooks hooks;
  hooks.qor_memo = &memo;
  SaParams params;
  params.num_threads = 4;
  params.iterations = 2;
  params.moves_per_iteration = 2;
  EXPECT_THROW(sa_extract(ce.egraph, ce.roots, ce.pi_names, FailingEvaluator{},
                          params, hooks),
               std::runtime_error);
  EXPECT_EQ(memo.in_flight(), 0u);
  EXPECT_EQ(memo.size(), 0u);

  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names,
                               ProxyEvaluator{}, params, hooks);
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_EQ(memo.size(), result.qor_cache_misses);
  EXPECT_EQ(memo.in_flight(), 0u);
}

/// Pins the winner of a 4-chain run bit for bit: its choices, cost and
/// the summed neighbour-generation counters. Every chain's trajectory
/// feeds the winner, so any change to extraction, the proxy costs or the
/// RNG draws moves this digest.
TEST(SaGolden, FourChainBestDigest) {
  std::uint64_t h = 0;
  for (const Aig& input : {make_adder(8), make_multiplier(4)}) {
    CircuitEGraph ce = aig_to_egraph(input);
    RunnerParams limits;
    limits.max_iterations = 3;
    limits.max_enodes = 6000;
    limits.time_limit_s = 1e9;
    run_rewriting(ce.egraph, make_logic_rules(), limits);

    ProxyEvaluator eval;
    SaParams params;
    params.num_threads = 4;
    params.seed = 5;
    SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
    h = splitmix64(h ^ result.best.size());
    for (std::uint32_t choice : result.best.raw()) h = splitmix64(h ^ choice);
    h = splitmix64(h ^ std::bit_cast<std::uint64_t>(result.best_cost));
    h = splitmix64(h ^ result.extract_stats.enodes_visited);
    h = splitmix64(h ^ result.extract_stats.enodes_skipped);
    h = splitmix64(h ^ result.extract_stats.passes);
    h = splitmix64(h ^ result.trace.size());
    EXPECT_TRUE(testing::functionally_equal(input, egraph_to_aig(ce, result.best)));
  }
  EXPECT_EQ(h, 0x5992341d65853105ull);
}

TEST_F(SaFixture, ZeroCostDeltaKeepsTemperature) {
  // Degenerate-schedule guard: when no move changes the cost, the paper's
  // Tn = Tn-1 * |delta| / divisor rule has no signal. The temperature used
  // to collapse to the 1e-6 floor; now it holds steady.
  class ConstantEvaluator : public QorEvaluator {
   public:
    Qor evaluate(const Aig&) const override { return Qor{1.0, 1.0}; }
  };
  ConstantEvaluator eval;
  SaParams params;
  params.num_threads = 1;
  params.iterations = 4;
  params.moves_per_iteration = 2;
  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  ASSERT_FALSE(result.trace.empty());
  for (const SaTracePoint& pt : result.trace) {
    EXPECT_DOUBLE_EQ(pt.temperature, params.initial_temperature);
  }
}

TEST_F(SaFixture, ZeroMovesPerIterationIsSafe) {
  // moves_per_iteration == 0 leaves last_delta at 0 forever; the schedule
  // guard must keep the run well-defined (it still evaluates the initial
  // solutions and the final polish).
  ProxyEvaluator eval;
  SaParams params;
  params.num_threads = 2;
  params.iterations = 5;
  params.moves_per_iteration = 0;
  SaResult result = sa_extract(ce.egraph, ce.roots, ce.pi_names, eval, params);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_LT(result.best_cost, kInfCost);
}

}  // namespace
}  // namespace emorphic
