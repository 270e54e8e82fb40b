#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace emorphic {
namespace {

TEST(Rng, Splitmix64MatchesTheReferenceOutputs) {
  // First outputs of Vigna's splitmix64 generator seeded with 0: every
  // structural signature, checkpoint fingerprint, cache key and derived
  // seed hashes through this function, so its bits are pinned.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
}

TEST(Rng, DerivedSeedsAreDistinctAndNonzero) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::uint64_t seed = derive_seed(base, i);
      EXPECT_NE(seed, 0u);
      EXPECT_EQ(seed, splitmix64(base ^ splitmix64(i + 1)));
      seeds.insert(seed);
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanIsRoughlyHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(23);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next());
  rng.reseed(23);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next(), first[i]);
}

}  // namespace
}  // namespace emorphic
