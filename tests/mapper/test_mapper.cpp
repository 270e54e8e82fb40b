#include "mapper/tech_mapper.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "aig/cut.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/epfl.hpp"
#include "cec/cec.hpp"
#include "opt/balance.hpp"

namespace emorphic {
namespace {

TEST(Mapper, SingleAnd) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_and(a, b));
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  EXPECT_GE(netlist.num_gates(), 1u);
  EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()));
}

TEST(Mapper, ComplementedOutput) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(lit_not(aig.make_and(a, b)));  // NAND: one gate, no inverter
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  EXPECT_EQ(netlist.num_gates(), 1u);
  EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()));
}

TEST(Mapper, PassThroughAndConstants) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  aig.add_po(a, "pass");
  aig.add_po(lit_not(a), "neg");
  aig.add_po(kLitTrue, "one");
  aig.add_po(kLitFalse, "zero");
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()));
}

TEST(Mapper, SemanticConstantsKeepTheirPolarity) {
  // A node whose cut function is constant matches no cell and becomes a tie
  // net. Both phases are ties of their own value: a constant-1 node must
  // not come out as 0 (nor its complement as 1).
  Aig aig;
  Lit a = make_lit(aig.add_pi("a"));
  Lit b = make_lit(aig.add_pi("b"));
  Lit c = make_lit(aig.add_pi("c"));
  testing::add_semantic_constants(aig, a, b, c);
  for (bool area_recovery : {false, true}) {
    MapperParams params;
    params.area_recovery = area_recovery;
    MappedNetlist netlist =
        map_to_cells(aig, CellLibrary::asap7_like(), params);
    EXPECT_EQ(cec(aig, netlist.to_aig()).status, CecStatus::kEquivalent)
        << "area_recovery=" << area_recovery;
    EXPECT_EQ(netlist.num_gates(), 0u) << "constants need no cells";
  }
}

TEST(Mapper, RawEpflCircuitsAreNeverRefuted) {
  // The shipped netlist of every registry circuit, mapped as generated.
  // Bounded SAT effort may leave a hard miter undecided, never refuted.
  CecParams cec_params;
  cec_params.conflict_limit = 20000;
  cec_params.time_limit_s = 0.0;
  for (const std::string& name : epfl_names()) {
    Aig aig = make_epfl(name);
    MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
    EXPECT_NE(cec(aig, netlist.to_aig(), cec_params).status,
              CecStatus::kNotEquivalent)
        << name;
  }
}

TEST(Mapper, FunctionPreservedRandom) {
  Rng rng(151);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(6, 4, 50, rng);
    MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
    EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig())) << round;
    EXPECT_GT(netlist.area(), 0.0);
    EXPECT_GT(netlist.delay(), 0.0);
  }
}

TEST(Mapper, XorUsesXorCell) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_xor(a, b));
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  bool has_xor = false;
  for (const MappedGate& g : netlist.gates()) {
    const std::string& name = netlist.library().cell(g.cell).name;
    if (name == "XOR2x1" || name == "XNOR2x1") has_xor = true;
  }
  EXPECT_TRUE(has_xor);
  EXPECT_LE(netlist.num_gates(), 2u);
  EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()));
}

TEST(Mapper, MajUsesMajCell) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit c = make_lit(aig.add_pi());
  aig.add_po(aig.make_maj(a, b, c));
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()));
  EXPECT_LE(netlist.num_gates(), 2u);  // MAJ3 (+ possible inverter)
}

TEST(Mapper, AreaRecoveryDoesNotHurtDelay) {
  Rng rng(152);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(8, 4, 120, rng);
    MapperParams with;
    with.area_recovery = true;
    MapperParams without;
    without.area_recovery = false;
    MappedNetlist nw = map_to_cells(aig, CellLibrary::asap7_like(), with);
    MappedNetlist nwo = map_to_cells(aig, CellLibrary::asap7_like(), without);
    // Required times guarantee delay is never degraded; area recovery is a
    // local area-flow heuristic, so allow a small tolerance on area.
    EXPECT_LE(nw.delay(), nwo.delay() + 1e-9);
    EXPECT_LE(nw.area(), nwo.area() * 1.10);
    EXPECT_TRUE(testing::functionally_equal(aig, nw.to_aig()));
  }
}

TEST(Mapper, AdderMapsCorrectly) {
  Aig adder = make_adder(8);
  MappedNetlist netlist = map_to_cells(adder, CellLibrary::asap7_like());
  EXPECT_TRUE(testing::functionally_equal(adder, netlist.to_aig()));
  // MAJ/XOR cells should make the mapped adder cheaper than 5 gates/bit.
  EXPECT_LT(netlist.num_gates(), 8u * 6u);
}

TEST(Mapper, BalancedCircuitMapsFaster) {
  // Depth reduction before mapping must not hurt mapped delay.
  Aig aig;
  std::vector<Lit> pis;
  for (int i = 0; i < 16; ++i) pis.push_back(make_lit(aig.add_pi()));
  Lit acc = pis[0];
  for (int i = 1; i < 16; ++i) acc = aig.make_and(acc, pis[i]);
  aig.add_po(acc);
  MappedQor chain = map_qor(aig, CellLibrary::asap7_like());
  MappedQor tree = map_qor(balance(aig), CellLibrary::asap7_like());
  EXPECT_LE(tree.delay, chain.delay);
}

TEST(Mapper, RejectsOversizeCuts) {
  Aig aig;
  aig.add_po(make_lit(aig.add_pi()));
  MapperParams params;
  params.cut_size = 5;
  EXPECT_THROW(map_to_cells(aig, CellLibrary::asap7_like(), params),
               std::invalid_argument);
}

TEST(Mapper, MatchingBoundIsCellPinsNotCutEnumerationLimit) {
  // Regression for the kMaxCutSize/kMaxCellPins mismatch: cut *enumeration*
  // supports K = 6 (SOP balancing uses it), but Boolean matching runs in
  // the 4-variable NPN domain, so the mapper's bound is kMaxCellPins. The
  // two constants must stay distinct and the mapper must accept exactly
  // [2, kMaxCellPins].
  static_assert(kMaxCellPins == 4);
  static_assert(kMaxCellPins < kMaxCutSize);

  Aig aig = make_adder(3);
  // Enumeration at the full width is fine...
  CutManager wide(aig, CutParams{kMaxCutSize, 8});
  EXPECT_FALSE(wide.cuts(aig.num_nodes() - 1).empty());
  // ...but mapping beyond the matcher's domain must throw, for every width
  // between the two limits.
  Matcher matcher(CellLibrary::asap7_like());
  for (unsigned k = kMaxCellPins + 1; k <= kMaxCutSize; ++k) {
    MapperParams params;
    params.cut_size = k;
    EXPECT_THROW(map_to_cells(aig, matcher, params), std::invalid_argument)
        << "cut_size " << k;
  }
  for (unsigned k = 2; k <= kMaxCellPins; ++k) {
    MapperParams params;
    params.cut_size = k;
    MappedNetlist netlist = map_to_cells(aig, matcher, params);
    EXPECT_TRUE(testing::functionally_equal(aig, netlist.to_aig()))
        << "cut_size " << k;
  }
}

TEST(Mapper, RejectsUndersizeCuts) {
  // cut_size < 2 is as invalid as > 4: it used to slip past the mapper's
  // validation and die on an assert (or UB in release) inside CutManager.
  Aig aig;
  aig.add_po(make_lit(aig.add_pi()));
  MapperParams params;
  params.cut_size = 1;
  EXPECT_THROW(map_to_cells(aig, CellLibrary::asap7_like(), params),
               std::invalid_argument);
  params.cut_size = 0;
  EXPECT_THROW(map_to_cells(aig, CellLibrary::asap7_like(), params),
               std::invalid_argument);
}

TEST(Mapper, RejectsZeroNumCuts) {
  // num_cuts == 0 leaves every node only its trivial cut, which matches no
  // cell: a parameter error, not a "library not NPN-complete" one.
  Aig aig = make_adder(3);
  Matcher matcher(CellLibrary::asap7_like());
  MapperParams params;
  params.num_cuts = 0;
  EXPECT_THROW(map_to_cells(aig, matcher, params), std::invalid_argument);
  EXPECT_THROW(map_to_cells(ChoiceAig::from_plain(aig), matcher, params),
               std::invalid_argument);
}

TEST(Mapper, SharedMatcherAndWorkspaceReuseMatchFreshMapping) {
  // The SA hot path maps many candidate AIGs through one shared matcher and
  // one reused workspace; every call must agree exactly with a fresh-state
  // mapping of the same circuit.
  Rng rng(153);
  Matcher matcher(CellLibrary::asap7_like());
  MapperWorkspace workspace;
  for (int round = 0; round < 6; ++round) {
    // Vary the circuit size so the workspace shrinks and grows across calls.
    unsigned ands = 30 + 40 * (round % 3);
    Aig aig = testing::random_aig(6, 3, ands, rng);
    MappedNetlist fresh = map_to_cells(aig, CellLibrary::asap7_like());
    MappedNetlist reused = map_to_cells(aig, matcher, {}, &workspace);
    EXPECT_EQ(fresh.num_gates(), reused.num_gates()) << round;
    EXPECT_DOUBLE_EQ(fresh.area(), reused.area()) << round;
    EXPECT_DOUBLE_EQ(fresh.delay(), reused.delay()) << round;
    EXPECT_TRUE(testing::functionally_equal(aig, reused.to_aig())) << round;
  }
}

}  // namespace
}  // namespace emorphic
