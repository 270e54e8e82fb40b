#include "opt/fraig.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "aig/signature.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/doubling.hpp"
#include "cec/cec.hpp"
#include "egraph/snapshot.hpp"  // fingerprint_fold

namespace emorphic {
namespace {

TEST(Fraig, MergesDoubledAdderAndPreservesFunction) {
  Aig aig = doubled(make_adder(6));
  FraigStats stats;
  Aig swept = fraig(aig, {}, &stats);
  EXPECT_LT(swept.num_ands(), aig.num_ands());
  EXPECT_EQ(stats.ands_before, aig.num_ands());
  EXPECT_EQ(stats.ands_after, swept.num_ands());
  EXPECT_GT(stats.proved, 0u);
  EXPECT_EQ(swept.num_pis(), aig.num_pis());
  EXPECT_EQ(swept.num_pos(), aig.num_pos());
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
}

TEST(Fraig, RedirectsNodeEquivalentToPi) {
  // (a | b) & a == a: the whole cone collapses onto the PI.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_and(aig.make_or(a, b), a));
  FraigStats stats;
  Aig swept = fraig(aig, {}, &stats);
  EXPECT_EQ(swept.num_ands(), 0u);
  EXPECT_EQ(swept.po(0), a);
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
}

TEST(Fraig, DetectsHiddenConstant) {
  // (a&b) & (a&!b) == 0, invisible to structural hashing.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit t1 = aig.make_and(a, b);
  Lit t2 = aig.make_and(a, lit_not(b));
  aig.add_po(aig.make_and(t1, t2));
  aig.add_po(lit_not(aig.make_and(t1, t2)));  // hidden constant 1
  Aig swept = fraig(aig);
  EXPECT_EQ(swept.num_ands(), 0u);
  EXPECT_EQ(swept.po(0), kLitFalse);
  EXPECT_EQ(swept.po(1), kLitTrue);
}

TEST(Fraig, MergesComplementEquivalentNodes) {
  // a^b and its xnor built via a mux: structurally distinct, one is the
  // complement of the other — the phase-handling path.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit x = aig.make_xor(a, b);
  Lit xn = aig.make_mux(a, b, lit_not(b));  // a?b:!b == xnor(a,b)
  aig.add_po(x);
  aig.add_po(xn);
  FraigStats stats;
  Aig swept = fraig(aig, {}, &stats);
  EXPECT_LT(swept.num_ands(), aig.num_ands());
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
  // The two POs must come out as complements of one shared cone.
  EXPECT_EQ(lit_var(swept.po(0)), lit_var(swept.po(1)));
  EXPECT_NE(swept.po(0), swept.po(1));
}

FraigParams complete_sweep(bool guided) {
  // Uncapped: the naive == guided invariant only holds for complete sweeps
  // (naive has no class-size cap).
  FraigParams params;
  params.use_simulation = guided;
  params.conflict_limit = 0;
  params.max_class_size = static_cast<std::size_t>(-1);
  return params;
}

TEST(Fraig, NaiveAndGuidedSweepsAgree) {
  // Doubled circuits: two structurally different copies of one function,
  // so every node has an equivalent partner strashing cannot see.
  Aig circuits[] = {doubled(make_adder(4)), doubled(make_adder(6)),
                    doubled(make_multiplier(4)), doubled(make_square(4)),
                    doubled(make_arbiter(4))};
  for (const Aig& aig : circuits) {
    FraigStats guided_stats, naive_stats;
    Aig guided = fraig(aig, complete_sweep(true), &guided_stats);
    Aig naive = fraig(aig, complete_sweep(false), &naive_stats);
    EXPECT_LT(guided.num_ands(), aig.num_ands());
    EXPECT_LT(naive.num_ands(), aig.num_ands());
    EXPECT_EQ(guided.num_ands(), naive.num_ands());
    EXPECT_EQ(guided_stats.proved, naive_stats.proved);
    EXPECT_LT(guided_stats.sat_calls, naive_stats.sat_calls)
        << "simulation must prune the candidate pairs";
    EXPECT_EQ(cec(aig, guided).status, CecStatus::kEquivalent);
    EXPECT_EQ(cec(aig, naive).status, CecStatus::kEquivalent);
  }
}

TEST(Fraig, GoldenSweepCounters) {
  // SAT calls, verdicts and the swept structure of guided and naive sweeps,
  // with and without a binding conflict budget, folded into one digest.
  // The third mode simulates only 64 patterns, so SAT refutes pairs and
  // their counterexamples are replayed. Derived before fraig's pair proof
  // moved to sat::prove_pair.
  const std::pair<Aig, bool> circuits[] = {  // {circuit, also sweep naively}
      {doubled(make_adder(4)), true},
      {doubled(make_adder(6)), false},
      {doubled(make_multiplier(4)), false},
      {doubled(make_arbiter(4)), false}};
  std::uint64_t h = 0;
  for (const auto& [aig, naive_too] : circuits) {
    for (std::uint64_t limit : {std::uint64_t{1}, std::uint64_t{10000}}) {
      for (int mode : {0, 1, 2}) {  // guided, naive, guided on 64 patterns
        const bool guided = mode != 1;
        if (!guided && !naive_too) continue;
        FraigParams params;
        params.conflict_limit = limit;
        params.use_simulation = guided;
        if (mode == 2) {
          params.sim_words = 1;
          params.sim_rounds = 0;
        }
        FraigStats stats;
        Aig swept = fraig(aig, params, &stats);
        h = fingerprint_fold(h, stats.sat_calls);
        h = fingerprint_fold(h, stats.proved);
        h = fingerprint_fold(h, stats.refuted);
        h = fingerprint_fold(h, stats.undecided);
        h = fingerprint_fold(h, structural_signature(swept));
      }
    }
  }
  EXPECT_EQ(h, 0x7e68f729d97de8efull) << std::hex << h;
}

TEST(Fraig, GuidedSweepProvesWideDoubledAdder) {
  // Past the naive sweep's quadratic reach: the guided sweep alone.
  Aig aig = doubled(make_adder(24));
  Aig swept = fraig(aig, complete_sweep(true));
  EXPECT_LT(swept.num_ands(), aig.num_ands());
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
}

TEST(Fraig, ConflictLimitLeavesPairsUndecidedButSound) {
  Aig aig = doubled(make_multiplier(4));
  FraigParams params;
  params.conflict_limit = 1;  // almost everything non-trivial times out
  FraigStats stats;
  Aig swept = fraig(aig, params, &stats);
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
  EXPECT_GT(stats.undecided, 0u);
}

TEST(Fraig, MaxClassSizeSkipsOversizedClasses) {
  Aig aig = doubled(make_adder(6));
  FraigParams params;
  params.max_class_size = 1;  // degenerate: every real class is oversized
  FraigStats stats;
  Aig swept = fraig(aig, params, &stats);
  EXPECT_EQ(swept.num_ands(), aig.num_ands());
  EXPECT_GT(stats.skipped_class_nodes, 0u);
  EXPECT_EQ(stats.sat_calls, 0u);
}

TEST(Fraig, HandlesConstantOnlyAndTrivialCircuits) {
  Aig constants;
  constants.add_po(kLitTrue);
  constants.add_po(kLitFalse);
  Aig swept = fraig(constants);
  EXPECT_EQ(swept.num_ands(), 0u);
  EXPECT_EQ(swept.po(0), kLitTrue);
  EXPECT_EQ(swept.po(1), kLitFalse);

  Aig passthrough;
  Lit a = make_lit(passthrough.add_pi());
  passthrough.add_po(lit_not(a));
  Aig swept2 = fraig(passthrough);
  EXPECT_EQ(swept2.po(0), lit_not(a));
}

TEST(Fraig, CounterexampleReplaySplitsFalseCandidates) {
  // AND over 16 PIs is 0 on all but one of 2^16 assignments: random
  // simulation (a few hundred patterns) almost surely groups it with
  // constant 0, so only a SAT counterexample — replayed as a simulation
  // pattern — separates the false candidates. Deterministic under the
  // default FraigParams seed.
  Aig aig;
  std::vector<Lit> lits;
  for (int i = 0; i < 16; ++i) lits.push_back(make_lit(aig.add_pi()));
  aig.add_po(aig.make_and_n(lits));
  FraigStats stats;
  Aig swept = fraig(aig, {}, &stats);
  EXPECT_EQ(cec(aig, swept).status, CecStatus::kEquivalent);
  EXPECT_EQ(swept.num_ands(), aig.num_ands()) << "nothing actually merges";
  EXPECT_GT(stats.refuted, 0u);
  EXPECT_GT(stats.cex_replays, 0u);
}

TEST(Fraig, RandomCircuitsStayEquivalent) {
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(6, 4, 80, rng);
    FraigParams params;
    params.seed = 1000 + static_cast<std::uint64_t>(round);
    Aig swept = fraig(aig, params);
    EXPECT_LE(swept.num_ands(), aig.num_ands());
    ASSERT_EQ(cec(aig, swept).status, CecStatus::kEquivalent)
        << "round " << round;
  }
}

}  // namespace
}  // namespace emorphic
