#include "extract/extractor.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"

namespace emorphic {
namespace {

TEST(Extractor, GreedyPicksCheaperForm) {
  // Class with two forms: x (leaf-only, cheap) vs AND(x, OR(x,y)) (costly).
  EGraph eg;
  EClassId x = eg.add_var(0);
  EClassId y = eg.add_var(1);
  EClassId absorbed = eg.add_and(x, eg.add_or(x, y));
  eg.merge(x, absorbed);
  eg.rebuild();

  Extraction sol = greedy_extract(eg, CostModel{CostKind::kSize});
  EClassId root = eg.find(x);
  const ENode& chosen = eg.eclass(root).nodes[sol.choice(root)];
  EXPECT_EQ(chosen.op, Op::kVar);
}

TEST(Extractor, DepthCostPrefersShallow) {
  // Same function two ways: chain AND(AND(a,b),c) vs balanced... use a
  // 4-term conjunction in chain vs tree shape, merged into one class.
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId c = eg.add_var(2);
  EClassId d = eg.add_var(3);
  EClassId chain = eg.add_and(eg.add_and(eg.add_and(a, b), c), d);
  EClassId tree = eg.add_and(eg.add_and(a, b), eg.add_and(c, d));
  eg.merge(chain, tree);
  eg.rebuild();

  std::vector<double> costs;
  BottomUpOptions opt;
  CostModel depth{CostKind::kDepth};
  opt.cost = &depth;
  Extraction sol = bottom_up_extract(eg, opt, &costs);
  EClassId root = eg.find(chain);
  EXPECT_NEAR(costs[root], 2.0, 0.1);  // balanced tree depth
  const ENode& chosen = eg.eclass(root).nodes[sol.choice(root)];
  // The chosen AND must have two depth-1 children (the tree form).
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_NEAR(costs[eg.find(chosen.children[i])], 1.0, 0.1);
  }
}

TEST(Extractor, CoversAllReachableClasses) {
  Rng rng(61);
  Aig aig = testing::random_aig(6, 3, 40, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  Extraction sol = greedy_extract(ce.egraph, CostModel{CostKind::kSize});
  for (const SerializedRoot& r : ce.roots) {
    EXPECT_TRUE(sol.has(ce.egraph.find(r.id)));
  }
}

TEST(Extractor, PrunedAndUnprunedAgreeOnGreedyCost) {
  Rng rng(62);
  for (int round = 0; round < 4; ++round) {
    Aig aig = testing::random_aig(5, 3, 30, rng);
    CircuitEGraph ce = aig_to_egraph(aig);
    RunnerParams limits;
    limits.max_iterations = 3;
    limits.max_enodes = 8000;
    run_rewriting(ce.egraph, make_logic_rules(), limits);

    CostModel cost{CostKind::kDepth};
    ExtractStats pruned_stats, full_stats;
    Extraction pruned = greedy_extract(ce.egraph, cost, &pruned_stats, true);
    Extraction full = greedy_extract(ce.egraph, cost, &full_stats, false);
    double c1 = solution_cost(ce.egraph, pruned, cost, ce.roots);
    double c2 = solution_cost(ce.egraph, full, cost, ce.roots);
    EXPECT_DOUBLE_EQ(c1, c2);
    // Pruning must do strictly less work on a rewritten graph.
    EXPECT_LT(pruned_stats.enodes_visited, full_stats.enodes_visited);
  }
}

TEST(Extractor, RandomExtractionIsWellFormed) {
  Rng rng(63);
  Aig aig = testing::random_aig(5, 2, 25, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 4000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  for (int i = 0; i < 5; ++i) {
    Extraction sol = random_extract(ce.egraph, rng);
    Aig out = egraph_to_aig(ce, sol);
    EXPECT_TRUE(testing::functionally_equal(aig, out)) << "draw " << i;
  }
}

TEST(Extractor, NeighborGenerationPreservesFunction) {
  Rng rng(64);
  Aig aig = testing::random_aig(5, 2, 25, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 4000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  CostModel cost{CostKind::kDepth};
  Extraction current = greedy_extract(ce.egraph, cost);
  for (int i = 0; i < 5; ++i) {
    BottomUpOptions opt;
    opt.cost = &cost;
    opt.p_random = 0.3;
    opt.rng = &rng;
    opt.warm_start = &current;
    Extraction neighbor = bottom_up_extract(ce.egraph, opt);
    Aig out = egraph_to_aig(ce, neighbor);
    EXPECT_TRUE(testing::functionally_equal(aig, out)) << "neighbor " << i;
    current = neighbor;
  }
}

TEST(Extractor, SolutionCostSizeCountsSharedOnce) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId shared = eg.add_and(a, b);
  EClassId f = eg.add_or(shared, eg.add_not(shared));
  Extraction sol = greedy_extract(eg, CostModel{CostKind::kSize});
  double cost = solution_cost(eg, sol, CostModel{CostKind::kSize},
                              {SerializedRoot{f, false, "f"}});
  // shared AND counted once + OR node = 2 (NOT is free).
  EXPECT_DOUBLE_EQ(cost, 2.0);
}

TEST(Extractor, ExtractionToAigLowersAllOps) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId x = eg.add_xor(a, b);
  EClassId o = eg.add_or(x, eg.add_not(a));
  Extraction sol = greedy_extract(eg, CostModel{CostKind::kSize});
  Aig out = extraction_to_aig(eg, sol, {SerializedRoot{o, false, "f"}},
                              {"a", "b"});
  Tt ta = tt_var(0, 2), tb = tt_var(1, 2);
  EXPECT_EQ(exhaustive_tt(out, 0), ((ta ^ tb) | (~ta & tt_mask(2))) & tt_mask(2));
}

TEST(Extractor, ConstantsExtract) {
  EGraph eg;
  EClassId zero = eg.add_const0();
  EClassId one = eg.add_const1();
  Extraction sol = greedy_extract(eg, CostModel{CostKind::kSize});
  Aig out = extraction_to_aig(
      eg, sol,
      {SerializedRoot{zero, false, "z"}, SerializedRoot{one, false, "o"}}, {});
  EXPECT_EQ(out.po(0), kLitFalse);
  EXPECT_EQ(out.po(1), kLitTrue);
}

/// The view compiles the e-graph faithfully (dense ids resolve find(),
/// merged classes share one record), and its self-check notices when the
/// e-graph it was built from has since changed.
TEST(ExtractView, CompilesTheEGraphAndDetectsDrift) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId ab = eg.add_and(a, b);
  EClassId ba_or = eg.add_or(b, a);
  eg.merge(ab, ba_or);  // not sound logic; only the structure matters here
  eg.rebuild();

  const ExtractView view(eg);
  EXPECT_EQ(view.check(eg), "");
  EXPECT_EQ(view.num_classes(), eg.num_classes());
  EXPECT_EQ(view.num_nodes(), eg.num_enodes());
  EXPECT_EQ(view.num_slots(), eg.num_classes_created());
  EXPECT_EQ(view.dense(ab), view.dense(ba_or));
  EXPECT_EQ(view.slot(view.dense(ba_or)), eg.find(ab));
  const std::uint32_t d = view.dense(ab);
  ASSERT_EQ(view.node_begin(d + 1) - view.node_begin(d), 2u);
  for (std::uint32_t i = view.node_begin(d); i < view.node_begin(d + 1); ++i) {
    EXPECT_EQ(view.node(i).child[0], view.dense(a));
    EXPECT_EQ(view.node(i).child[1], view.dense(b));
  }
  EXPECT_EQ(view.leaves().size(), 2u);
  EXPECT_EQ(view.parents_end(view.dense(a)) - view.parents_begin(view.dense(a)),
            1);  // both parent e-nodes live in one class

  eg.add_xor(a, b);
  EXPECT_NE(view.check(eg), "");
}

}  // namespace
}  // namespace emorphic
