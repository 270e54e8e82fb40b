#include "aig/truth.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.hpp"

namespace emorphic {
namespace {

/// Oracle for tt_expand: build the expanded table one minterm at a time.
/// Bit m of the result is bit `small_m` of `t`, where input i of the small
/// function reads input pos[i] of the big one.
Tt expand_by_minterms(Tt t, unsigned n_small, unsigned n_big,
                      const std::array<std::uint8_t, 6>& pos) {
  Tt out = 0;
  for (unsigned m = 0; m < (1u << n_big); ++m) {
    unsigned small_m = 0;
    for (unsigned i = 0; i < n_small; ++i) {
      small_m |= ((m >> pos[i]) & 1u) << i;
    }
    out |= ((t >> small_m) & 1ull) << m;
  }
  return out;
}

/// Calls `fn(pos)` for every strictly increasing map of n_small inputs
/// into n_big positions.
template <typename Fn>
void for_each_position_map(unsigned n_small, unsigned n_big, Fn&& fn) {
  for (unsigned set = 0; set < (1u << n_big); ++set) {
    if (static_cast<unsigned>(std::popcount(set)) != n_small) continue;
    std::array<std::uint8_t, 6> pos{};
    unsigned i = 0;
    for (unsigned b = 0; b < n_big; ++b) {
      if ((set >> b) & 1u) pos[i++] = static_cast<std::uint8_t>(b);
    }
    fn(pos);
  }
}

TEST(Truth, MasksAndVars) {
  EXPECT_EQ(tt_mask(0), 1ull);
  EXPECT_EQ(tt_mask(1), 3ull);
  EXPECT_EQ(tt_mask(2), 0xfull);
  EXPECT_EQ(tt_mask(6), ~0ull);
  EXPECT_EQ(tt_var(0, 2), 0xaull);
  EXPECT_EQ(tt_var(1, 2), 0xcull);
}

TEST(Truth, CofactorsAndDependence) {
  unsigned n = 3;
  Tt f = tt_var(0, n) & tt_var(1, n);  // a & b
  EXPECT_TRUE(tt_depends_on(f, 0, n));
  EXPECT_TRUE(tt_depends_on(f, 1, n));
  EXPECT_FALSE(tt_depends_on(f, 2, n));
  EXPECT_EQ(tt_cofactor1(f, 0, n), tt_var(1, n));
  EXPECT_EQ(tt_cofactor0(f, 0, n), 0ull);
}

TEST(Truth, CountOnes) {
  EXPECT_EQ(tt_count_ones(tt_var(0, 3), 3), 4u);
  EXPECT_EQ(tt_count_ones(tt_mask(3), 3), 8u);
  EXPECT_EQ(tt_count_ones(0, 3), 0u);
}

TEST(Truth, ExpandPreservesFunction) {
  // f(a, b) = a & !b over 2 vars, re-expressed over 4 vars at slots 1, 3.
  Tt f = tt_var(0, 2) & tt_not(tt_var(1, 2), 2);
  std::array<std::uint8_t, 6> pos{{1, 3, 0, 0, 0, 0}};
  Tt g = tt_expand(f, 2, 4, pos);
  EXPECT_EQ(g, tt_var(1, 4) & tt_not(tt_var(3, 4), 4));
}

TEST(Truth, ExpandMatchesMintermOracleOnEveryPositionMap) {
  Rng rng(11);
  for (unsigned n_big = 0; n_big <= 6; ++n_big) {
    for (unsigned n_small = 0; n_small <= n_big; ++n_small) {
      unsigned maps = 0;
      for_each_position_map(n_small, n_big, [&](const auto& pos) {
        ++maps;
        // Every projection, both constants, and random functions.
        std::vector<Tt> tables = {0, tt_mask(n_small)};
        for (unsigned i = 0; i < n_small; ++i) {
          tables.push_back(tt_var(i, n_small));
        }
        for (int r = 0; r < 64; ++r) {
          tables.push_back(rng.next() & tt_mask(n_small));
        }
        for (Tt t : tables) {
          ASSERT_EQ(tt_expand(t, n_small, n_big, pos),
                    expand_by_minterms(t, n_small, n_big, pos))
              << "t=" << t << " n_small=" << n_small << " n_big=" << n_big;
        }
      });
      // C(n_big, n_small) strictly increasing maps.
      unsigned binom = 1;
      for (unsigned i = 0; i < n_small; ++i) {
        binom = binom * (n_big - i) / (i + 1);
      }
      EXPECT_EQ(maps, binom);
    }
  }
}

TEST(Truth, ExpandIgnoresBitsAboveTheSmallDomain) {
  // Only the low 2^n_small bits of the input table are defined; whatever
  // sits above them must not leak into the expanded function.
  Rng rng(12);
  for (unsigned n_big = 0; n_big <= 6; ++n_big) {
    for (unsigned n_small = 0; n_small <= n_big; ++n_small) {
      for_each_position_map(n_small, n_big, [&](const auto& pos) {
        for (int r = 0; r < 16; ++r) {
          const Tt t = rng.next();  // garbage above bit 2^n_small
          const Tt g = tt_expand(t, n_small, n_big, pos);
          EXPECT_EQ(g, expand_by_minterms(t, n_small, n_big, pos));
          EXPECT_EQ(g, tt_expand(t & tt_mask(n_small), n_small, n_big, pos));
          EXPECT_EQ(g & ~tt_mask(n_big), 0ull);
        }
      });
    }
  }
}

TEST(Truth, ExpandIdentityPaddingToFourInputs) {
  // The cell mapper's pad4: a cut function of up to 4 inputs re-expressed
  // over 4 inputs with the identity map.
  const std::array<std::uint8_t, 6> identity{{0, 1, 2, 3, 4, 5}};
  Rng rng(13);
  for (unsigned n = 0; n <= 4; ++n) {
    for (int r = 0; r < 256; ++r) {
      const Tt t = rng.next() & tt_mask(n);
      const Tt g = tt_expand(t, n, 4, identity);
      EXPECT_EQ(g, expand_by_minterms(t, n, 4, identity));
      for (unsigned i = n; i < 4; ++i) EXPECT_FALSE(tt_depends_on(g, i, 4));
    }
  }
}

TEST(Truth, ToString) {
  EXPECT_EQ(tt_to_string(0x8ull, 2), "1000");
  EXPECT_EQ(tt_to_string(tt_var(0, 1), 1), "10");
}

TEST(Npn, IdentityTransform) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Tt t = rng.next() & tt_mask(4);
    EXPECT_EQ(npn_apply(t, NpnTransform::identity()), t);
  }
}

TEST(Npn, InverseRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Tt t = rng.next() & tt_mask(4);
    NpnTransform tr;
    tr.perm = {1, 3, 0, 2};
    tr.input_phase = static_cast<std::uint8_t>(rng.next_below(16));
    tr.output_phase = rng.chance(0.5);
    Tt applied = npn_apply(t, tr);
    EXPECT_EQ(npn_apply(applied, npn_inverse(tr)), t);
  }
}

TEST(Npn, ComposeMatchesSequentialApplication) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Tt t = rng.next() & tt_mask(4);
    NpnTransform t1, t2;
    t1.perm = {2, 0, 3, 1};
    t1.input_phase = static_cast<std::uint8_t>(rng.next_below(16));
    t1.output_phase = rng.chance(0.5);
    t2.perm = {3, 1, 0, 2};
    t2.input_phase = static_cast<std::uint8_t>(rng.next_below(16));
    t2.output_phase = rng.chance(0.5);
    Tt sequential = npn_apply(npn_apply(t, t1), t2);
    Tt composed = npn_apply(t, npn_compose(t2, t1));
    EXPECT_EQ(sequential, composed);
  }
}

TEST(Npn, CanonReconstruction) {
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    Tt t = rng.next() & tt_mask(4);
    NpnTransform tr;
    Tt canon = npn_canon(t, &tr);
    EXPECT_EQ(npn_apply(t, tr), canon);
  }
}

TEST(Npn, NpnEquivalentFunctionsShareCanon) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    Tt t = rng.next() & tt_mask(4);
    NpnTransform tr;
    tr.perm = {3, 2, 1, 0};
    tr.input_phase = static_cast<std::uint8_t>(rng.next_below(16));
    tr.output_phase = rng.chance(0.5);
    Tt other = npn_apply(t, tr);
    EXPECT_EQ(npn_canon(t), npn_canon(other));
  }
}

TEST(Npn, TwoInputNpnClasses) {
  // All non-degenerate 2-input functions fall into two NPN classes:
  // AND-like and XOR-like.
  Tt a = tt_var(0, 4), b = tt_var(1, 4);
  Tt and2 = a & b;
  Tt nand2 = ~(a & b) & tt_mask(4);
  Tt nor2 = ~(a | b) & tt_mask(4);
  Tt andn = a & ~b;
  EXPECT_EQ(npn_canon(and2), npn_canon(nand2));
  EXPECT_EQ(npn_canon(and2), npn_canon(nor2));
  EXPECT_EQ(npn_canon(and2), npn_canon(andn & tt_mask(4)));
  Tt xor2 = (a ^ b) & tt_mask(4);
  Tt xnor2 = ~(a ^ b) & tt_mask(4);
  EXPECT_EQ(npn_canon(xor2), npn_canon(xnor2));
  EXPECT_NE(npn_canon(and2), npn_canon(xor2));
}

// Parameterized sweep: canon is a true invariant for every single-swap
// permutation applied to a set of structured functions.
class NpnSweep : public ::testing::TestWithParam<int> {};

TEST_P(NpnSweep, CanonInvariantUnderRandomTransforms) {
  Rng rng(1000 + GetParam());
  Tt t = rng.next() & tt_mask(4);
  Tt canon = npn_canon(t);
  for (int k = 0; k < 24; ++k) {
    NpnTransform tr;
    // random permutation via Fisher-Yates
    std::array<std::uint8_t, 4> perm{{0, 1, 2, 3}};
    for (int i = 3; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
    }
    tr.perm = perm;
    tr.input_phase = static_cast<std::uint8_t>(rng.next_below(16));
    tr.output_phase = rng.chance(0.5);
    EXPECT_EQ(npn_canon(npn_apply(t, tr)), canon);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, NpnSweep, ::testing::Range(0, 20));

/// The brute-force search npn_canon replaced, kept as the oracle: every
/// transform in perm -> input phase -> output phase order, applied minterm
/// by minterm, keeping the first strictly smallest table.
Tt npn_canon_brute_force(Tt t, NpnTransform* out_transform) {
  static constexpr std::uint8_t kPerms[24][4] = {
      {0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 1, 3}, {0, 2, 3, 1}, {0, 3, 1, 2},
      {0, 3, 2, 1}, {1, 0, 2, 3}, {1, 0, 3, 2}, {1, 2, 0, 3}, {1, 2, 3, 0},
      {1, 3, 0, 2}, {1, 3, 2, 0}, {2, 0, 1, 3}, {2, 0, 3, 1}, {2, 1, 0, 3},
      {2, 1, 3, 0}, {2, 3, 0, 1}, {2, 3, 1, 0}, {3, 0, 1, 2}, {3, 0, 2, 1},
      {3, 1, 0, 2}, {3, 1, 2, 0}, {3, 2, 0, 1}, {3, 2, 1, 0},
  };
  t &= tt_mask(4);
  Tt best = ~0ull;
  NpnTransform best_tr;
  for (const auto& perm : kPerms) {
    for (unsigned phase = 0; phase < 16; ++phase) {
      NpnTransform tr;
      tr.perm = {perm[0], perm[1], perm[2], perm[3]};
      tr.input_phase = static_cast<std::uint8_t>(phase);
      for (unsigned out_phase = 0; out_phase < 2; ++out_phase) {
        tr.output_phase = out_phase != 0;
        Tt candidate = npn_apply(t, tr);
        if (candidate < best) {
          best = candidate;
          best_tr = tr;
        }
      }
    }
  }
  *out_transform = best_tr;
  return best;
}

/// Every third table: the oracle alone takes about 4 s in Release over all
/// 65,536 4-input tables.
constexpr Tt kNpnOracleStride = 3;

/// Each table gets the brute force's canonical table and the very
/// transform it returned (the first minimum in its search order), so match
/// caches keyed by the canon and covers built through the transform are
/// unchanged.
TEST(Truth, NpnCanonMatchesBruteForce) {
  for (Tt t = 0; t <= tt_mask(4); t += kNpnOracleStride) {
    NpnTransform expected_tr;
    NpnTransform tr;
    const Tt expected = npn_canon_brute_force(t, &expected_tr);
    ASSERT_EQ(npn_canon(t, &tr), expected) << std::hex << t;
    ASSERT_EQ(tr.perm, expected_tr.perm) << std::hex << t;
    ASSERT_EQ(tr.input_phase, expected_tr.input_phase) << std::hex << t;
    ASSERT_EQ(tr.output_phase, expected_tr.output_phase) << std::hex << t;
  }
}

}  // namespace
}  // namespace emorphic
