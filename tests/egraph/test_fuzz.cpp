// Randomized stress tests ("fuzzing") of the e-graph core: arbitrary
// interleavings of add / merge / rebuild must always restore the
// congruence and hash-consing invariants, and rewriting over random
// circuits must never change their function.

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"

namespace emorphic {
namespace {

class EGraphFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EGraphFuzz, RandomOpsPreserveInvariants) {
  Rng rng(7000 + GetParam());
  EGraph eg;
  std::vector<EClassId> ids;
  for (std::uint32_t i = 0; i < 5; ++i) ids.push_back(eg.add_var(i));
  ids.push_back(eg.add_const0());
  ids.push_back(eg.add_const1());

  for (int step = 0; step < 300; ++step) {
    double roll = rng.next_double();
    if (roll < 0.55 || ids.size() < 2) {
      // add a random node over existing classes
      EClassId a = ids[rng.next_below(ids.size())];
      EClassId b = ids[rng.next_below(ids.size())];
      switch (rng.next_below(4)) {
        case 0:
          ids.push_back(eg.add_and(a, b));
          break;
        case 1:
          ids.push_back(eg.add_or(a, b));
          break;
        case 2:
          ids.push_back(eg.add_xor(a, b));
          break;
        default:
          ids.push_back(eg.add_not(a));
          break;
      }
    } else if (roll < 0.8) {
      EClassId a = ids[rng.next_below(ids.size())];
      EClassId b = ids[rng.next_below(ids.size())];
      eg.merge(a, b);
    } else {
      eg.rebuild();
      std::string why;
      ASSERT_TRUE(eg.check_invariants(&why)) << "step " << step << ": " << why;
    }
  }
  eg.rebuild();
  std::string why;
  EXPECT_TRUE(eg.check_invariants(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EGraphFuzz, ::testing::Range(0, 10));

class RewriteFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RewriteFuzz, RewritingNeverChangesFunction) {
  Rng rng(8000 + GetParam());
  unsigned pis = 3 + static_cast<unsigned>(rng.next_below(4));
  unsigned pos = 1 + static_cast<unsigned>(rng.next_below(4));
  unsigned ands = 10 + static_cast<unsigned>(rng.next_below(40));
  Aig aig = testing::random_aig(pis, pos, ands, rng);

  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 1 + rng.next_below(4);
  limits.max_enodes = 2000 + rng.next_below(6000);
  limits.max_matches_per_rule = 200 + rng.next_below(2000);
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  std::string why;
  ASSERT_TRUE(ce.egraph.check_invariants(&why)) << why;

  // Greedy, random, and neighbor extractions all stay equivalent.
  Aig greedy = egraph_to_aig_greedy(ce, rng.chance(0.5) ? CostKind::kSize
                                                        : CostKind::kDepth);
  EXPECT_TRUE(testing::functionally_equal(aig, greedy));
  Extraction rand_sol = random_extract(ce.egraph, rng);
  EXPECT_TRUE(testing::functionally_equal(aig, egraph_to_aig(ce, rand_sol)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteFuzz, ::testing::Range(0, 15));

}  // namespace
}  // namespace emorphic
