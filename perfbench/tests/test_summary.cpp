#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "summary.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

TEST(Percentile, NearestRankWithTenSamplesBeyond) {
  // 20 samples: the median is the 10th, with exactly 10 above it.
  EXPECT_EQ(percentile(one_to(20), 0.50), 10.0);
  // 100 samples: p90 is the 90th, with 10 above it.
  EXPECT_EQ(percentile(one_to(100), 0.90), 90.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile(one_to(19), 0.50).has_value());  // 9 beyond
  EXPECT_FALSE(percentile(one_to(99), 0.90).has_value());  // 9 beyond
  EXPECT_FALSE(percentile(one_to(10), 0.99).has_value());
  EXPECT_FALSE(percentile({}, 0.50).has_value());
  EXPECT_FALSE(percentile(one_to(100), 1.0).has_value());  // max: none beyond
  EXPECT_FALSE(percentile(one_to(100), 0.0).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

TEST(Geomean, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
}

TEST(CpuPerWall, RatioAndEmptySpan) {
  EXPECT_DOUBLE_EQ(cpu_per_wall(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(cpu_per_wall(1.0, 1.0), 1.0);
  EXPECT_EQ(cpu_per_wall(1.0, 0.0), 0.0);
}

TEST(FailureCount, UndecidedAndRefusedCountAsFailed) {
  FailureCount f;
  f.add(Outcome::kProven);
  f.add(Outcome::kUndecided);
  f.add(Outcome::kRefused);
  f.add(Outcome::kProven);
  EXPECT_EQ(f.attempted, 4u);
  EXPECT_EQ(f.failed, 2u);
  EXPECT_DOUBLE_EQ(f.failed_ratio(), 0.5);
  // An undecided result is not a hard failure; a refusal is.
  EXPECT_EQ(f.hard_failed, 1u);
}

TEST(FailureCount, EveryNonProvenOutcomeFails) {
  FailureCount f;
  for (Outcome o : {Outcome::kUndecided, Outcome::kRefuted, Outcome::kError,
                    Outcome::kRefused, Outcome::kCancelled}) {
    f.add(o);
  }
  EXPECT_EQ(f.failed, 5u);
  EXPECT_EQ(f.hard_failed, 4u);
  EXPECT_DOUBLE_EQ(f.failed_ratio(), 1.0);
  EXPECT_EQ(FailureCount{}.failed_ratio(), 0.0);
}
