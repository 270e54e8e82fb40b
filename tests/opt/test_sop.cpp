#include "opt/sop.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "aig/sim.hpp"

namespace emorphic {
namespace {

TEST(Isop, ConstantsAndLiterals) {
  EXPECT_TRUE(isop(0, 3).empty());
  Sop taut = isop(tt_mask(3), 3);
  ASSERT_EQ(taut.size(), 1u);
  EXPECT_EQ(taut[0].num_lits(), 0u);
  Sop lit = isop(tt_var(1, 3), 3);
  ASSERT_EQ(lit.size(), 1u);
  EXPECT_EQ(lit[0].pos, 1u << 1);
  EXPECT_EQ(lit[0].neg, 0u);
}

/// Property sweep: ISOP reproduces the original function for random tables
/// over 2..6 inputs, and is irredundant enough to be cube-minimal-ish
/// (every cube covers at least one minterm no other cube covers).
class IsopSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(IsopSweep, RoundTripAndIrredundance) {
  unsigned n = GetParam();
  Rng rng(90 + n);
  for (int round = 0; round < 40; ++round) {
    Tt f = rng.next() & tt_mask(n);
    Sop sop = isop(f, n);
    EXPECT_EQ(sop_to_tt(sop, n), f);
    // Irredundance: dropping any cube changes the function.
    for (std::size_t k = 0; k < sop.size(); ++k) {
      Sop reduced = sop;
      reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(k));
      EXPECT_NE(sop_to_tt(reduced, n), f) << "redundant cube in " << sop_to_string(sop, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IsopSweep, ::testing::Values(2u, 3u, 4u, 5u, 6u));

TEST(Isop, XorNeedsFourCubes) {
  unsigned n = 3;
  Tt f = (tt_var(0, n) ^ tt_var(1, n) ^ tt_var(2, n)) & tt_mask(n);
  Sop sop = isop(f, n);
  EXPECT_EQ(sop.size(), 4u);  // odd-parity minterms of 3 vars
  EXPECT_EQ(sop_to_tt(sop, n), f);
}

TEST(Factor, SingleCube) {
  Sop sop{Cube{0b011, 0b100}};  // a b c'
  FactoredForm form = factor(sop);
  EXPECT_EQ(form.num_lits(), 3u);
}

TEST(Factor, ExtractsCommonLiteral) {
  // ab + ac -> a(b+c): 3 literals instead of 4.
  Sop sop{Cube{0b011, 0}, Cube{0b101, 0}};
  FactoredForm form = factor(sop);
  EXPECT_EQ(form.num_lits(), 3u);
}

TEST(Factor, ConstantForms) {
  FactoredForm zero = factor({});
  EXPECT_TRUE(zero.nodes.empty());
  EXPECT_FALSE(zero.const_value);
  FactoredForm one = factor({Cube{}});
  EXPECT_TRUE(one.nodes.empty());
  EXPECT_TRUE(one.const_value);
}

/// Property: factoring preserves the function (verified by rebuilding the
/// factored form as an AIG and comparing truth tables).
class FactorSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FactorSweep, FactoredFormMatchesFunction) {
  unsigned n = GetParam();
  Rng rng(100 + n);
  for (int round = 0; round < 30; ++round) {
    Tt f = rng.next() & tt_mask(n);
    Sop sop = isop(f, n);
    FactoredForm form = factor(sop);
    Aig aig;
    std::vector<Lit> leaves;
    for (unsigned i = 0; i < n; ++i) leaves.push_back(make_lit(aig.add_pi()));
    std::vector<double> arrival(n, 0.0);
    Lit out = build_factored(aig, form, leaves, arrival);
    aig.add_po(out);
    EXPECT_EQ(exhaustive_tt(aig, 0), f) << sop_to_string(sop, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FactorSweep, ::testing::Values(2u, 3u, 4u, 5u, 6u));

TEST(Factor, NeverMoreLiteralsThanSop) {
  Rng rng(111);
  for (int round = 0; round < 50; ++round) {
    Tt f = rng.next() & tt_mask(5);
    Sop sop = isop(f, 5);
    if (sop.empty()) continue;
    FactoredForm form = factor(sop);
    EXPECT_LE(form.num_lits(), sop_num_lits(sop));
  }
}

TEST(FactorMemo, EntriesAreKeyedByTableAndSupportSize) {
  FactorMemo memo;
  // 0x8 is a&b over two inputs but a&b&c' over three: the same table bits
  // at two support sizes are different functions.
  const FactoredForm& two = memo.get(0x8, 2);
  const FactoredForm& three = memo.get(0x8, 3);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(two, factor(isop(0x8, 2)));
  EXPECT_EQ(three, factor(isop(0x8, 3)));
  EXPECT_NE(two, three);
  EXPECT_EQ(two.num_lits(), 2u);
  EXPECT_EQ(three.num_lits(), 3u);
  // A repeat is a hit: the same entry, not a new one. Bits above the
  // support are ignored, as isop ignores them.
  EXPECT_EQ(&memo.get(0x8, 2), &two);
  EXPECT_EQ(&memo.get(0xf8, 2), &two);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(FactorMemo, MatchesTheUncachedPathOnRandomTables) {
  Rng rng(112);
  FactorMemo memo;
  for (int round = 0; round < 200; ++round) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(6));
    // Few distinct tables, so most lookups are hits.
    const Tt f = rng.next_below(8) * 0x9e3779b97f4a7c15ull & tt_mask(n);
    EXPECT_EQ(memo.get(f, n), factor(isop(f, n))) << n << " " << f;
  }
  EXPECT_LE(memo.size(), 48u);
}

TEST(BuildSop, DirectConstruction) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Tt f = (tt_var(0, 2) | tt_var(1, 2)) & tt_mask(2);
  aig.add_po(build_sop(aig, f, 2, {a, b}));
  EXPECT_EQ(exhaustive_tt(aig, 0), f);
}

TEST(BuildFactored, ArrivalAwarePairing) {
  // With one late input, the balanced build must keep it near the root:
  // depth seen from the late input is 1 level, not log2(n).
  Aig aig;
  std::vector<Lit> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(make_lit(aig.add_pi()));
  Sop sop;  // single cube of 8... cube supports only 6 vars; use 6.
  leaves.resize(6);
  Cube cube;
  cube.pos = 0x3f;
  sop.push_back(cube);
  FactoredForm form = factor(sop);
  std::vector<double> arrival(6, 0.0);
  arrival[3] = 10.0;  // late
  Lit out = build_factored(aig, form, leaves, arrival);
  aig.add_po(out);
  // The late leaf must feed the final AND directly: its fanout node is the PO.
  auto levels = aig.levels();
  Var root = lit_var(out);
  Var late = lit_var(leaves[3]);
  bool direct = lit_var(aig.fanin0(root)) == late || lit_var(aig.fanin1(root)) == late;
  EXPECT_TRUE(direct);
  // The 5 early inputs balance to depth 3; the late input adds one level.
  EXPECT_EQ(levels[root], 4u);
}

}  // namespace
}  // namespace emorphic
