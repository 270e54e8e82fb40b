#include "aig/sim.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace emorphic {
namespace {

TEST(Sim, AndOfWords) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit f = aig.make_and(a, lit_not(b));
  aig.add_po(f);
  auto value = simulate_words(aig, {0b1100, 0b1010});
  EXPECT_EQ(value[lit_var(f)], 0b0100ull);
}

TEST(Sim, ExhaustiveTtMatchesConstruction) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit c = make_lit(aig.add_pi());
  aig.add_po(aig.make_or(aig.make_and(a, b), lit_not(c)));
  Tt expect = ((tt_var(0, 3) & tt_var(1, 3)) | tt_not(tt_var(2, 3), 3)) &
              tt_mask(3);
  EXPECT_EQ(exhaustive_tt(aig, 0), expect);
}

TEST(Sim, EqualCircuitsCompareEqual) {
  Rng rng(3);
  Aig aig = testing::random_aig(5, 3, 30, rng);
  Rng check(99);
  EXPECT_TRUE(sim_probably_equal(aig, aig, check));
  EXPECT_TRUE(sim_probably_equal(aig, aig.cleanup(), check));
}

TEST(Sim, DifferentCircuitsCompareUnequal) {
  Aig a;
  Lit x = make_lit(a.add_pi());
  Lit y = make_lit(a.add_pi());
  a.add_po(a.make_and(x, y));
  Aig b;
  Lit u = make_lit(b.add_pi());
  Lit v = make_lit(b.add_pi());
  b.add_po(b.make_or(u, v));
  Rng rng(4);
  EXPECT_FALSE(sim_probably_equal(a, b, rng));
}

TEST(Sim, InterfaceMismatchIsUnequal) {
  Aig a;
  a.add_pi();
  a.add_po(kLitTrue);
  Aig b;
  b.add_pi();
  b.add_pi();
  b.add_po(kLitTrue);
  Rng rng(5);
  EXPECT_FALSE(sim_probably_equal(a, b, rng));
}

TEST(Sim, PoSignatureComplementHandling) {
  Aig a;
  Lit x = make_lit(a.add_pi());
  a.add_po(x);
  a.add_po(lit_not(x));
  Rng rng(6);
  auto sig = po_signature(a, rng, 4);
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(sig[0 * 4 + w], ~sig[1 * 4 + w]);
  }
}

TEST(Sim, MultiWordMatchesPerWordSimulation) {
  Rng rng(7);
  Aig aig = testing::random_aig(8, 4, 60, rng);
  const unsigned w = 5;
  std::vector<std::uint64_t> pi_words(
      static_cast<std::size_t>(aig.num_pis()) * w);
  for (auto& word : pi_words) word = rng.next();
  auto multi = simulate_words_multi(aig, pi_words, w);
  for (unsigned k = 0; k < w; ++k) {
    std::vector<std::uint64_t> column(aig.num_pis());
    for (std::uint32_t pi = 0; pi < aig.num_pis(); ++pi) {
      column[pi] = pi_words[static_cast<std::size_t>(pi) * w + k];
    }
    auto single = simulate_words(aig, column);
    for (Var v = 0; v < aig.num_nodes(); ++v) {
      ASSERT_EQ(multi[static_cast<std::size_t>(v) * w + k], single[v]);
    }
  }
}

TEST(Sim, ExpandPatternReplaysExactAssignmentInBitZero) {
  Rng rng(9);
  std::vector<bool> pattern{true, false, true, true, false};
  auto words = expand_pattern(pattern, rng, /*flip_p=*/0.5);
  ASSERT_EQ(words.size(), pattern.size());
  for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
    EXPECT_EQ((words[pi] & 1) != 0, pattern[pi]);
  }
  // flip_p = 0 reproduces the assignment in every bit.
  auto pure = expand_pattern(pattern, rng, /*flip_p=*/0.0);
  for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
    EXPECT_EQ(pure[pi], pattern[pi] ? ~0ull : 0ull);
  }
}

TEST(Sim, CounterexampleReplaySplitsSignatures) {
  // f = a & b and g = a agree on every pattern with b = 1 — simulate with
  // such patterns and their signatures collide. Replaying the refuting
  // assignment {a=1, b=0} (what a SAT counterexample hands back) must split
  // them: bit 0 of the replay word distinguishes f from g by construction.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit f = aig.make_and(a, b);
  aig.add_po(f);
  aig.add_po(a);

  // Patterns where b is all-ones: f and g are indistinguishable.
  std::vector<std::uint64_t> collide{0b0110ull, ~0ull};
  auto before = simulate_words(aig, collide);
  ASSERT_EQ(before[lit_var(f)], before[lit_var(a)]);

  // The counterexample, amplified with random neighbors.
  Rng rng(10);
  std::vector<bool> cex{true, false};
  auto replay = expand_pattern(cex, rng);
  auto after = simulate_words(aig, replay);
  EXPECT_NE(after[lit_var(f)], after[lit_var(a)]);
  EXPECT_NE(after[lit_var(f)] & 1, after[lit_var(a)] & 1)
      << "bit 0 must replay the exact refuting assignment";
}

}  // namespace
}  // namespace emorphic
