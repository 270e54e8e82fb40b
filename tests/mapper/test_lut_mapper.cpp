// The k-LUT mapping backend (mapper/lut_mapper.hpp):
//   * every cover is CEC-proven against the mapper's input (the LUT
//     network re-expressed as an AIG via to_aig) for k in {3..6};
//   * QoR sanity: depth never increases with k, and any real LUT width
//     beats the k = 2 cover on area;
//   * choice-aware mapping of a ring-free annotation is bit-identical to
//     the plain overload, and real rings (e-graph export) stay
//     CEC-equivalent with the gated outcome never worse than plain;
//   * lut_size outside [2, kMaxCutSize] and num_cuts == 0 throw
//     std::invalid_argument on both overloads (the map_to_cells contract);
//   * parallel cut enumeration never changes the mapped network;
//   * interface edge cases: complemented / constant / pass-through POs,
//     workspace reuse, BLIF shape.

#include "mapper/lut_mapper.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"
#include "cec/cec.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/choice_export.hpp"

namespace emorphic {
namespace {

bool equivalent(const Aig& input, const MappedNetlist& network) {
  return cec(input, network.to_aig()).status == CecStatus::kEquivalent;
}

/// Bit-identical network comparison: same nets, LUTs, tables, interface.
void expect_same_network(const MappedNetlist& a, const MappedNetlist& b) {
  ASSERT_TRUE(a.is_lut());
  ASSERT_TRUE(b.is_lut());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (std::size_t i = 0; i < a.num_gates(); ++i) {
    EXPECT_EQ(a.gates()[i].inputs, b.gates()[i].inputs) << "lut " << i;
    EXPECT_EQ(a.gates()[i].tt, b.gates()[i].tt) << "lut " << i;
    EXPECT_EQ(a.gates()[i].output, b.gates()[i].output) << "lut " << i;
  }
  EXPECT_EQ(a.pis(), b.pis());
  EXPECT_EQ(a.pos(), b.pos());
  EXPECT_EQ(a.to_blif("m"), b.to_blif("m"));
}

TEST(LutMapper, SingleAnd) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_and(a, b));
  MappedNetlist network = map_to_luts(aig);
  EXPECT_TRUE(network.is_lut());
  EXPECT_EQ(network.num_gates(), 1u);
  EXPECT_EQ(network.area(), 1.0);
  EXPECT_EQ(network.delay(), 1.0);
  EXPECT_TRUE(equivalent(aig, network));
}

TEST(LutMapper, ComplementedOutputAbsorbedIntoTable) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(lit_not(aig.make_and(a, b)));  // NAND: still one LUT
  MappedNetlist network = map_to_luts(aig);
  EXPECT_EQ(network.num_gates(), 1u);
  EXPECT_TRUE(equivalent(aig, network));
}

TEST(LutMapper, PassThroughAndConstantOutputs) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  aig.add_po(a, "pass");
  aig.add_po(lit_not(a), "neg");  // inverter on a PI: one 1-input LUT
  aig.add_po(kLitTrue, "one");
  aig.add_po(kLitFalse, "zero");
  MappedNetlist network = map_to_luts(aig);
  EXPECT_TRUE(equivalent(aig, network));
}

TEST(LutMapper, EquivalentAcrossLutSizes) {
  Rng rng(21);
  Aig circuits[] = {make_adder(8),
                    make_adder(16),
                    make_multiplier(4),
                    make_multiplier(6),
                    testing::random_aig(7, 4, 90, rng),
                    testing::random_aig_tail_pos(16, 2000, 21)};
  for (const Aig& aig : circuits) {
    for (unsigned k = 3; k <= kMaxCutSize; ++k) {
      LutMapperParams params;
      params.lut_size = k;
      MappedNetlist network = map_to_luts(aig, params);
      EXPECT_TRUE(equivalent(aig, network)) << "k=" << k;
    }
  }
}

TEST(LutMapper, QorSanityAcrossLutSizes) {
  // Wider LUTs never deepen the cover (a k-feasible cut is (k+1)-feasible),
  // and any real width beats the k = 2 cover on area. Area itself is NOT
  // monotone in k — area flow is a heuristic and e.g. k = 5 can beat k = 6
  // — so that is deliberately not asserted.
  Aig aig = make_adder(8);
  LutMapperParams p2;
  p2.lut_size = 2;
  const double area2 = map_to_luts(aig, p2).area();
  double prev_depth = 1e300;
  for (unsigned k = 2; k <= kMaxCutSize; ++k) {
    LutMapperParams params;
    params.lut_size = k;
    MappedNetlist network = map_to_luts(aig, params);
    EXPECT_LE(network.delay(), prev_depth) << "k=" << k;
    if (k >= 3) EXPECT_LT(network.area(), area2) << "k=" << k;
    prev_depth = network.delay();
  }
}

TEST(LutMapper, RingFreeChoicesMatchPlainBitIdentically) {
  Rng rng(33);
  Aig aig = testing::random_aig(6, 3, 70, rng);
  MappedNetlist plain = map_to_luts(aig);
  MappedNetlist via_choices = map_to_luts(ChoiceAig::from_plain(aig));
  expect_same_network(plain, via_choices);
}

TEST(LutMapper, ChoiceRingsStayEquivalentAndGatedNoWorse) {
  Aig aig = make_adder(6);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams rparams;
  rparams.max_iterations = 3;
  rparams.max_enodes = 20000;
  rparams.max_matches_per_rule = 2000;
  run_rewriting(ce.egraph, make_logic_rules(), rparams);
  Extraction solution = greedy_extract(ce.egraph, CostModel{CostKind::kDepth});
  ChoiceAig caig = egraph_to_choice_aig(ce, solution, {}, nullptr);
  ASSERT_GT(caig.choices.num_rings(), 0u);

  MappedNetlist choice = map_to_luts(caig);
  EXPECT_TRUE(equivalent(aig, choice));

  ChoiceMapOutcome outcome = map_with_choices_gated(caig, LutMapperParams{});
  EXPECT_TRUE(equivalent(aig, outcome.netlist));
  EXPECT_LE(outcome.netlist.area(), outcome.plain.area);
  EXPECT_LE(outcome.netlist.delay(), outcome.plain.delay);
}

TEST(LutMapper, InvalidLutSizeThrowsOnBothOverloads) {
  Aig aig = make_adder(3);
  ChoiceAig caig = ChoiceAig::from_plain(aig);
  for (unsigned bad : {0u, 1u, kMaxCutSize + 1}) {
    LutMapperParams params;
    params.lut_size = bad;
    EXPECT_THROW(map_to_luts(aig, params), std::invalid_argument)
        << "lut_size=" << bad;
    EXPECT_THROW(map_to_luts(caig, params), std::invalid_argument)
        << "lut_size=" << bad;
  }
}

TEST(LutMapper, ZeroNumCutsThrowsOnBothOverloads) {
  Aig aig = make_adder(3);
  ChoiceAig caig = ChoiceAig::from_plain(aig);
  LutMapperParams params;
  params.num_cuts = 0;
  EXPECT_THROW(map_to_luts(aig, params), std::invalid_argument);
  EXPECT_THROW(map_to_luts(caig, params), std::invalid_argument);
}

TEST(LutMapper, WorkspaceReuseAcrossCalls) {
  // Both backends share one covering DP, so one workspace serves both:
  // alternating cell and LUT maps through it must give fresh-state covers.
  MapperWorkspace workspace;
  Matcher matcher(CellLibrary::asap7_like());
  Rng rng(55);
  for (int round = 0; round < 3; ++round) {
    Aig aig = testing::random_aig(6 + round, 3, 50 + 25 * round, rng);
    MappedNetlist fresh = map_to_luts(aig);
    MappedNetlist reused = map_to_luts(aig, LutMapperParams{}, &workspace);
    expect_same_network(fresh, reused);
    MappedNetlist fresh_cells = map_to_cells(aig, matcher);
    MappedNetlist reused_cells = map_to_cells(aig, matcher, {}, &workspace);
    EXPECT_EQ(fresh_cells.to_blif("m"), reused_cells.to_blif("m")) << round;
    EXPECT_EQ(fresh_cells.area(), reused_cells.area()) << round;
    EXPECT_EQ(fresh_cells.delay(), reused_cells.delay()) << round;
  }
}

TEST(LutMapper, BlifShape) {
  Aig aig;
  Lit a = make_lit(aig.add_pi("a"));
  Lit b = make_lit(aig.add_pi("b"));
  aig.add_po(aig.make_and(a, lit_not(b)), "f");
  MappedNetlist network = map_to_luts(aig);
  std::string blif = network.to_blif("andnot");
  EXPECT_NE(blif.find(".model andnot"), std::string::npos);
  EXPECT_NE(blif.find(".inputs a b"), std::string::npos);
  EXPECT_NE(blif.find(".names"), std::string::npos);
  EXPECT_NE(blif.find(".end"), std::string::npos);
}

}  // namespace
}  // namespace emorphic
