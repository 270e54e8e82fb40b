#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../test_helpers.hpp"
#include "aig/sim.hpp"
#include "check/validators.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

TEST(Aig, LiteralHelpers) {
  EXPECT_EQ(make_lit(3), 6u);
  EXPECT_EQ(make_lit(3, true), 7u);
  EXPECT_EQ(lit_var(7u), 3u);
  EXPECT_TRUE(lit_is_compl(7u));
  EXPECT_FALSE(lit_is_compl(6u));
  EXPECT_EQ(lit_not(6u), 7u);
  EXPECT_EQ(lit_regular(7u), 6u);
  EXPECT_EQ(lit_notcond(6u, true), 7u);
  EXPECT_EQ(lit_notcond(6u, false), 6u);
}

TEST(Aig, ConstantPropagation) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  EXPECT_EQ(aig.make_and(a, kLitFalse), kLitFalse);
  EXPECT_EQ(aig.make_and(kLitFalse, a), kLitFalse);
  EXPECT_EQ(aig.make_and(a, kLitTrue), a);
  EXPECT_EQ(aig.make_and(a, a), a);
  EXPECT_EQ(aig.make_and(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(Aig, StructuralHashing) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit f1 = aig.make_and(a, b);
  Lit f2 = aig.make_and(b, a);  // commuted operands hash identically
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(aig.num_ands(), 1u);
  Lit f3 = aig.make_and(lit_not(a), b);
  EXPECT_NE(f1, f3);
  EXPECT_EQ(aig.num_ands(), 2u);
}

/// Re-making every AND's fanin pair, in either operand order, returns that
/// AND and adds no node.
void expect_every_pair_rehashes(Aig& aig) {
  const std::uint32_t nodes = aig.num_nodes();
  for (Var v = 1; v < nodes; ++v) {
    if (!aig.is_and(v)) continue;
    ASSERT_EQ(aig.make_and(aig.fanin0(v), aig.fanin1(v)), make_lit(v));
    ASSERT_EQ(aig.make_and(aig.fanin1(v), aig.fanin0(v)), make_lit(v));
  }
  EXPECT_EQ(aig.num_nodes(), nodes);
}

TEST(Aig, StrashTableGrowsPastManyBoundaries) {
  // Grows the table from 16 slots through 2^18: every doubling re-inserts
  // all ANDs, and each must still be found afterwards.
  Rng rng(11);
  Aig aig;
  std::vector<Lit> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(make_lit(aig.add_pi()));
  while (aig.num_ands() < 100000) {
    Lit a = lit_notcond(pool[rng.next_below(pool.size())], rng.chance(0.5));
    Lit b = lit_notcond(pool[rng.next_below(pool.size())], rng.chance(0.5));
    pool.push_back(aig.make_and(a, b));
  }
  aig.add_po(pool.back());
  EXPECT_EQ(check::check_aig(aig), "");
  expect_every_pair_rehashes(aig);
}

TEST(Aig, CopiesMovesAndLikeStrashIndependently) {
  Rng rng(5);
  const Aig source = testing::random_aig(8, 2, 200, rng);
  const Lit a = make_lit(source.pis()[0]);
  const Lit b = make_lit(source.pis()[1]);
  const Lit source_ab = source.find_and(a, b);

  Aig copy = source;
  expect_every_pair_rehashes(copy);
  // Enough new ANDs to grow the copy's table at least once.
  std::vector<Lit> pool;
  for (Var pi : copy.pis()) pool.push_back(make_lit(pi));
  std::vector<Lit> added;
  while (copy.num_ands() < 3 * source.num_ands()) {
    Lit x = lit_notcond(pool[rng.next_below(pool.size())], rng.chance(0.5));
    Lit y = lit_notcond(pool[rng.next_below(pool.size())], rng.chance(0.5));
    Lit f = copy.make_and(x, y);
    pool.push_back(f);
    if (lit_var(f) >= source.num_nodes()) added.push_back(f);
  }
  EXPECT_EQ(check::check_aig(copy), "");
  for (Lit f : added) {
    // The source cannot even hold these variables; its table must not know
    // their fanin pairs unless it built the same AND itself.
    EXPECT_EQ(source.find_and(copy.fanin0(lit_var(f)), copy.fanin1(lit_var(f))),
              kLitNone);
  }
  EXPECT_EQ(check::check_aig(source), "");

  Aig moved;
  {
    Aig donor = source;
    moved = std::move(donor);
  }
  expect_every_pair_rehashes(moved);
  Lit m = moved.make_and(a, lit_not(b));
  EXPECT_EQ(check::check_aig(moved), "");
  EXPECT_EQ(source.find_and(a, lit_not(b)) == kLitNone,
            lit_var(m) >= source.num_nodes());

  Aig like = Aig::like(source);
  EXPECT_EQ(like.find_and(a, b), kLitNone);
  Lit ab = like.make_and(a, b);
  EXPECT_EQ(ab, make_lit(like.num_pis() + 1));
  EXPECT_EQ(like.find_and(b, a), ab);
  EXPECT_EQ(source.find_and(a, b), source_ab);
  EXPECT_EQ(check::check_aig(like), "");
}

TEST(Aig, FindAndAgreesWithMakeAnd) {
  Rng rng(3);
  Aig aig = testing::random_aig(6, 1, 60, rng);
  const std::uint32_t vars = aig.num_nodes();
  for (int k = 0; k < 2000; ++k) {
    // Constants, repeated and complementary operands included.
    Lit a = static_cast<Lit>(rng.next_below(2 * vars));
    Lit b = rng.chance(0.1) ? lit_notcond(a, rng.chance(0.5))
                            : static_cast<Lit>(rng.next_below(2 * vars));
    const std::uint32_t nodes = aig.num_nodes();
    const Lit found = aig.find_and(a, b);
    ASSERT_EQ(aig.num_nodes(), nodes);
    const Lit made = aig.make_and(a, b);
    if (found != kLitNone) {
      EXPECT_EQ(made, found);
      EXPECT_EQ(aig.num_nodes(), nodes);
    } else {
      EXPECT_EQ(made, make_lit(nodes));
      EXPECT_EQ(aig.find_and(b, a), made);
    }
  }
  EXPECT_EQ(aig.find_and(make_lit(1), kLitFalse), kLitFalse);
  EXPECT_EQ(aig.find_and(kLitTrue, make_lit(2, true)), make_lit(2, true));
  EXPECT_EQ(aig.find_and(make_lit(3), make_lit(3, true)), kLitFalse);
  EXPECT_EQ(check::check_aig(aig), "");
}

TEST(Aig, DerivedConnectivesAreCorrect) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit s = make_lit(aig.add_pi());
  aig.add_po(aig.make_or(a, b));
  aig.add_po(aig.make_xor(a, b));
  aig.add_po(aig.make_mux(s, a, b));
  aig.add_po(aig.make_maj(a, b, s));
  // exhaustive over 3 inputs
  EXPECT_EQ(exhaustive_tt(aig, 0) & tt_mask(2), (tt_var(0, 2) | tt_var(1, 2)));
  EXPECT_EQ(exhaustive_tt(aig, 1) & tt_mask(2), (tt_var(0, 2) ^ tt_var(1, 2)));
  Tt va = tt_var(0, 3), vb = tt_var(1, 3), vs = tt_var(2, 3);
  EXPECT_EQ(exhaustive_tt(aig, 2), ((vs & va) | (~vs & vb)) & tt_mask(3));
  EXPECT_EQ(exhaustive_tt(aig, 3), ((va & vb) | (va & vs) | (vb & vs)));
}

TEST(Aig, LevelsAndDepth) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit c = make_lit(aig.add_pi());
  Lit ab = aig.make_and(a, b);
  Lit abc = aig.make_and(ab, c);
  aig.add_po(abc);
  auto levels = aig.levels();
  EXPECT_EQ(levels[lit_var(ab)], 1u);
  EXPECT_EQ(levels[lit_var(abc)], 2u);
  EXPECT_EQ(aig.num_levels(), 2u);
}

TEST(Aig, BalancedConjunctionIsLogDepth) {
  Aig aig;
  std::vector<Lit> lits;
  for (int i = 0; i < 16; ++i) lits.push_back(make_lit(aig.add_pi()));
  aig.add_po(aig.make_and_n(lits));
  EXPECT_EQ(aig.num_levels(), 4u);
  EXPECT_EQ(aig.num_ands(), 15u);
}

TEST(Aig, MakeAndNEmptyIsTrue) {
  Aig aig;
  EXPECT_EQ(aig.make_and_n({}), kLitTrue);
  EXPECT_EQ(aig.make_or_n({}), kLitFalse);
}

TEST(Aig, FanoutCounts) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit ab = aig.make_and(a, b);
  Lit f = aig.make_and(ab, lit_not(a));
  aig.add_po(f);
  aig.add_po(ab);
  auto fanout = aig.fanout_counts();
  EXPECT_EQ(fanout[lit_var(a)], 2u);   // ab and f
  EXPECT_EQ(fanout[lit_var(ab)], 2u);  // f and PO
  EXPECT_EQ(fanout[lit_var(f)], 1u);   // PO
}

TEST(Aig, CleanupDropsDeadNodes) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit used = aig.make_and(a, b);
  aig.make_and(lit_not(a), lit_not(b));  // dead
  aig.add_po(used);
  EXPECT_EQ(aig.num_ands(), 2u);
  Aig cleaned = aig.cleanup();
  EXPECT_EQ(cleaned.num_ands(), 1u);
  EXPECT_TRUE(testing::functionally_equal(aig, cleaned));
}

TEST(Aig, CleanupPreservesFunctionRandom) {
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    Aig aig = testing::random_aig(6, 4, 60, rng);
    Aig cleaned = aig.cleanup();
    EXPECT_TRUE(testing::functionally_equal(aig, cleaned));
    EXPECT_LE(cleaned.num_ands(), aig.num_ands());
  }
}

TEST(Aig, NamesPreserved) {
  Aig aig;
  aig.add_pi("alpha");
  aig.add_po(kLitTrue, "omega");
  EXPECT_EQ(aig.pi_name(0), "alpha");
  EXPECT_EQ(aig.po_name(0), "omega");
  Aig like = Aig::like(aig);
  EXPECT_EQ(like.pi_name(0), "alpha");
  EXPECT_EQ(like.po_name(0), "omega");
}

TEST(Aig, ConstantPoSurvivesCleanup) {
  Aig aig;
  aig.add_pi();
  aig.add_po(kLitTrue, "one");
  aig.add_po(kLitFalse, "zero");
  Aig cleaned = aig.cleanup();
  EXPECT_EQ(cleaned.po(0), kLitTrue);
  EXPECT_EQ(cleaned.po(1), kLitFalse);
}

}  // namespace
}  // namespace emorphic
