#include "flow/conversion.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"
#include "util/timer.hpp"

namespace emorphic {
namespace {

TEST(Conversion, ForwardIsOneToOne) {
  // Every AND node becomes exactly one AND e-node; NOTs only materialize
  // for complemented edges.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit f = aig.make_and(a, lit_not(b));
  aig.add_po(f);
  CircuitEGraph ce = aig_to_egraph(aig);
  // classes: const0, a, b, NOT(b), AND -> 5
  EXPECT_EQ(ce.egraph.num_classes(), 5u);
  EXPECT_EQ(ce.egraph.num_enodes(), 5u);
}

TEST(Conversion, RoundTripPreservesFunction) {
  Rng rng(191);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(6, 4, 60, rng);
    CircuitEGraph ce = aig_to_egraph(aig);
    Aig back = egraph_to_aig_greedy(ce);
    EXPECT_TRUE(testing::functionally_equal(aig, back)) << round;
  }
}

TEST(Conversion, RoundTripPreservesInterface) {
  Aig adder = make_adder(8);
  CircuitEGraph ce = aig_to_egraph(adder);
  Aig back = egraph_to_aig_greedy(ce);
  ASSERT_EQ(back.num_pis(), adder.num_pis());
  ASSERT_EQ(back.num_pos(), adder.num_pos());
  for (std::uint32_t i = 0; i < adder.num_pis(); ++i) {
    EXPECT_EQ(back.pi_name(i), adder.pi_name(i));
  }
  for (std::uint32_t i = 0; i < adder.num_pos(); ++i) {
    EXPECT_EQ(back.po_name(i), adder.po_name(i));
  }
}

TEST(Conversion, RoundTripWithoutRewritingIsNearIdentity) {
  // Greedy size extraction of an unrewritten e-graph reproduces the input
  // node count (no structural information is lost in conversion).
  Aig adder = make_adder(12);
  CircuitEGraph ce = aig_to_egraph(adder);
  Aig back = egraph_to_aig_greedy(ce, CostKind::kSize);
  EXPECT_EQ(back.num_ands(), adder.num_ands());
}

TEST(Conversion, LinearScaling) {
  // Table III's claim in miniature: forward conversion time grows roughly
  // linearly, so quadrupling the circuit must not blow up the runtime.
  Aig small = make_multiplier(8);
  Aig large = make_multiplier(16);  // ~4x the nodes
  Timer t1;
  CircuitEGraph ce_small = aig_to_egraph(small);
  double small_time = t1.seconds();
  Timer t2;
  CircuitEGraph ce_large = aig_to_egraph(large);
  double large_time = t2.seconds();
  // Allow generous noise: must stay within ~40x for a 4x size growth.
  EXPECT_LT(large_time, std::max(small_time * 40.0, 0.25));
  EXPECT_GT(ce_large.egraph.num_enodes(), ce_small.egraph.num_enodes());
}

TEST(Conversion, ComplementedPoIsFlagNotNode) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(lit_not(aig.make_and(a, b)));
  CircuitEGraph ce = aig_to_egraph(aig);
  EXPECT_TRUE(ce.roots[0].complemented);
  // Only const0, a, b, AND — no NOT node for the PO.
  EXPECT_EQ(ce.egraph.num_enodes(), 4u);
}

}  // namespace
}  // namespace emorphic
