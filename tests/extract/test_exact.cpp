#include "extract/exact.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_helpers.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"

namespace emorphic {
namespace {

TEST(Exact, TrivialGraphIsItsOwnOptimum) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_and(a, b);
  auto best = exact_extract(eg, {SerializedRoot{f, false, "f"}});
  ASSERT_TRUE(best.has_value());
  double cost = solution_cost(eg, *best, CostModel{CostKind::kSize},
                              {SerializedRoot{f, false, "f"}});
  EXPECT_DOUBLE_EQ(cost, 1.0);
}

TEST(Exact, PicksCheapestForm) {
  // Class holding both x and a 2-node equivalent: exact picks the leaf.
  EGraph eg;
  EClassId x = eg.add_var(0);
  EClassId y = eg.add_var(1);
  EClassId redundant = eg.add_and(x, eg.add_or(x, y));
  eg.merge(x, redundant);
  eg.rebuild();
  std::vector<SerializedRoot> roots{SerializedRoot{eg.find(x), false, "f"}};
  auto best = exact_extract(eg, roots);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(solution_cost(eg, *best, CostModel{CostKind::kSize}, roots),
                   0.0);
}

TEST(Exact, GivesUpOnHugeSpaces) {
  Rng rng(211);
  Aig aig = testing::random_aig(6, 3, 60, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 10000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  ExactParams params;
  params.max_combinations = 1000;
  EXPECT_FALSE(exact_extract(ce.egraph, ce.roots, params).has_value());
}

TEST(Exact, WellFoundednessDetectsCycles) {
  // Build a cyclic selection by hand: class A = {x, AND(B,B)},
  // class B = {y, AND(A,A)}; choosing both ANDs is cyclic.
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId and_b = eg.add_and(b, b);  // placeholder; will merge into a
  EClassId and_a = eg.add_and(a, a);
  eg.merge(a, and_b);
  eg.merge(b, and_a);
  eg.rebuild();

  std::vector<SerializedRoot> roots{SerializedRoot{eg.find(a), false, "f"}};
  // Find the AND node index in each class.
  auto and_index = [&](EClassId c) -> std::uint32_t {
    const auto& nodes = eg.eclass(c).nodes;
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].op == Op::kAnd) return i;
    }
    return Extraction::kNoChoice;
  };
  auto var_index = [&](EClassId c) -> std::uint32_t {
    const auto& nodes = eg.eclass(c).nodes;
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].op == Op::kVar) return i;
    }
    return Extraction::kNoChoice;
  };
  Extraction cyclic(eg.num_classes_created());
  cyclic.choose(eg.find(a), and_index(eg.find(a)));
  cyclic.choose(eg.find(b), and_index(eg.find(b)));
  EXPECT_FALSE(solution_is_well_founded(eg, cyclic, roots));
  // Every other user of the cone walk rejects it too.
  const CostModel size{CostKind::kSize};
  EXPECT_EQ(solution_cost(eg, cyclic, size, roots), kInfCost);
  EXPECT_THROW(extraction_to_aig(eg, cyclic, roots, {"x", "y"}),
               std::invalid_argument);

  Extraction fine(eg.num_classes_created());
  fine.choose(eg.find(a), and_index(eg.find(a)));
  fine.choose(eg.find(b), var_index(eg.find(b)));
  EXPECT_TRUE(solution_is_well_founded(eg, fine, roots));
}

TEST(Exact, IncompleteSolutionIsNotWellFounded) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_and(a, b);
  Extraction partial(eg.num_classes_created());
  partial.choose(f, 0);  // children undecided
  const std::vector<SerializedRoot> roots{SerializedRoot{f, false, "f"}};
  EXPECT_FALSE(solution_is_well_founded(eg, partial, roots));
  EXPECT_EQ(solution_cost(eg, partial, CostModel{CostKind::kDepth}, roots),
            kInfCost);
  EXPECT_THROW(extraction_to_aig(eg, partial, roots, {"a", "b"}),
               std::invalid_argument);
}

/// Property sweep: on small rewritten e-graphs the greedy extractor is never
/// better than the oracle, and stays within a modest factor of it.
class ExactOracle : public ::testing::TestWithParam<int> {};

TEST_P(ExactOracle, GreedyIsBoundedByOptimum) {
  Rng rng(3000 + GetParam());
  Aig aig = testing::random_aig(3, 2, 6, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 60;
  limits.max_matches_per_rule = 50;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  ExactParams params;
  params.cost = CostModel{CostKind::kDepth};
  params.max_combinations = 1u << 20;
  auto best = exact_extract(ce.egraph, ce.roots, params);
  if (!best.has_value()) GTEST_SKIP() << "search space too large";

  double optimal = solution_cost(ce.egraph, *best, params.cost, ce.roots);
  Extraction greedy = greedy_extract(ce.egraph, params.cost);
  double greedy_cost = solution_cost(ce.egraph, greedy, params.cost, ce.roots);
  EXPECT_GE(greedy_cost, optimal - 1e-9);
  // Greedy depth extraction is exact on these tiny graphs in practice;
  // tolerate slack but flag gross regressions.
  EXPECT_LE(greedy_cost, optimal * 2.0 + 1.0);

  // The oracle's solution rebuilds into a functionally equivalent circuit.
  Aig rebuilt = egraph_to_aig(ce, *best);
  EXPECT_TRUE(testing::functionally_equal(aig, rebuilt));
}

INSTANTIATE_TEST_SUITE_P(SmallGraphs, ExactOracle, ::testing::Range(0, 12));

}  // namespace
}  // namespace emorphic
