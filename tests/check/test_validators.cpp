// Seeded-corruption battery for the invariant subsystem (src/check/): every
// validator must (a) accept the real structures the library builds and
// (b) reject each corruption class it guards against, naming the offending
// node/class in the message. Corruption is planted through the
// check::CheckProbe seam — the public APIs are deliberately unable to
// produce these states.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"
#include "check/check.hpp"
#include "check/probe.hpp"
#include "check/validators.hpp"
#include "egraph/egraph.hpp"
#include "flow/pipeline.hpp"
#include "mapper/lut_mapper.hpp"
#include "mapper/tech_mapper.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

using check::CheckProbe;

Aig small_aig() {
  Rng rng(7);
  return testing::random_aig(5, 3, 30, rng);
}

// --- check_aig ---------------------------------------------------------------

TEST(CheckAig, AcceptsRealAig) {
  Aig aig = small_aig();
  EXPECT_EQ(check::check_aig(aig), "");
  EXPECT_EQ(check::check_aig(aig.cleanup()), "");
}

TEST(CheckAig, RejectsCycle) {
  Aig aig = small_aig();
  // Re-point some AND node's fanin at itself: a 1-cycle no make_and call
  // could ever create.
  Var victim = 0;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) victim = v;
  }
  ASSERT_NE(victim, 0u);
  CheckProbe::set_and_fanins(aig, victim, make_lit(victim), aig.fanin1(victim));
  std::string why = check::check_aig(aig);
  EXPECT_NE(why.find("node " + std::to_string(victim)), std::string::npos)
      << why;
  EXPECT_NE(why.find("topological order"), std::string::npos) << why;
}

TEST(CheckAig, RejectsNonCanonicalFanins) {
  Aig aig;
  Var a = aig.add_pi();
  Var b = aig.add_pi();
  Lit f = aig.make_and(make_lit(a), make_lit(b));
  aig.add_po(f);
  // Swap the fanins out of strash order.
  CheckProbe::set_and_fanins(aig, lit_var(f), make_lit(b), make_lit(a));
  std::string why = check::check_aig(aig);
  EXPECT_NE(why.find("node " + std::to_string(lit_var(f))), std::string::npos)
      << why;
  EXPECT_NE(why.find("canonical strash order"), std::string::npos) << why;
}

TEST(CheckAig, RejectsDanglingPoLiteral) {
  Aig aig = small_aig();
  aig.set_po(0, make_lit(aig.num_nodes() + 5));
  std::string why = check::check_aig(aig);
  EXPECT_NE(why.find("PO 0"), std::string::npos) << why;
}

TEST(CheckAig, RejectsAndCountDrift) {
  Aig aig = small_aig();
  ++CheckProbe::num_ands(aig);
  std::string why = check::check_aig(aig);
  EXPECT_NE(why.find("num_ands"), std::string::npos) << why;
}

/// A full strash slot whose successor is empty: no other AND's probe runs
/// through it, so emptying it loses exactly its own node.
std::size_t last_slot_of_a_run(const std::vector<Var>& slots) {
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] != 0 && slots[(s + 1) % slots.size()] == 0) return s;
  }
  return slots.size();
}

std::size_t first_empty_slot(const std::vector<Var>& slots) {
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] == 0) return s;
  }
  return slots.size();
}

TEST(CheckAig, RejectsDroppedStrashSlot) {
  Aig aig = small_aig();
  std::vector<Var>& slots = CheckProbe::strash_slots(aig);
  const std::size_t s = last_slot_of_a_run(slots);
  ASSERT_LT(s, slots.size());
  const Var victim = slots[s];
  slots[s] = 0;
  std::string why = check::check_aig(aig);
  EXPECT_EQ(why.find("node " + std::to_string(victim) + ":"), 0u) << why;
  EXPECT_NE(why.find("strash lookup"), std::string::npos) << why;
}

TEST(CheckAig, RejectsDuplicatedStrashSlot) {
  Aig aig = small_aig();
  std::vector<Var>& slots = CheckProbe::strash_slots(aig);
  const std::size_t full = last_slot_of_a_run(slots);
  const std::size_t empty = first_empty_slot(slots);
  ASSERT_LT(full, slots.size());
  ASSERT_LT(empty, slots.size());
  const Var victim = slots[full];
  slots[empty] = victim;
  std::string why = check::check_aig(aig);
  EXPECT_EQ(why.find("node " + std::to_string(victim) + ":"), 0u) << why;
  EXPECT_NE(why.find("held by strash slots"), std::string::npos) << why;
}

TEST(CheckAig, RejectsStrashSlotOnPi) {
  Aig aig = small_aig();
  std::vector<Var>& slots = CheckProbe::strash_slots(aig);
  const std::size_t empty = first_empty_slot(slots);
  ASSERT_LT(empty, slots.size());
  const Var pi = aig.pis()[2];
  slots[empty] = pi;
  std::string why = check::check_aig(aig);
  EXPECT_NE(why.find("node " + std::to_string(pi) + ","), std::string::npos)
      << why;
  EXPECT_NE(why.find("not a live AND"), std::string::npos) << why;
}

// --- check_egraph ------------------------------------------------------------

EGraph small_egraph() {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId ab = eg.add_and(a, b);
  EClassId ba = eg.add_or(b, a);
  eg.merge(ab, ba);
  eg.add_not(ab);
  eg.rebuild();
  return eg;
}

TEST(CheckEgraph, AcceptsRebuiltEgraph) {
  EGraph eg = small_egraph();
  EXPECT_EQ(check::check_egraph(eg), "");
}

TEST(CheckEgraph, RejectsStaleHashconsEntry) {
  EGraph eg = small_egraph();
  // Intern an e-node no live class holds: the bijection check must flag it
  // even though every live e-node still resolves fine.
  CheckProbe::hashcons(eg).insert(ENode::var(99), 0);
  std::string why = check::check_egraph(eg);
  EXPECT_NE(why.find("stale entry"), std::string::npos) << why;
}

TEST(CheckEgraph, RejectsDroppedHashconsEntry) {
  EGraph eg = small_egraph();
  const ENode victim = CheckProbe::class_nodes(eg, eg.find(0))[0];
  CheckProbe::hashcons(eg).erase(victim);
  std::string why = check::check_egraph(eg);
  EXPECT_NE(why.find("missing from hashcons"), std::string::npos) << why;
}

TEST(CheckEgraph, RejectsUncompressedUnionFind) {
  EGraph eg = small_egraph();
  std::vector<EClassId>& parent = CheckProbe::union_find(eg);
  // The fixture merged the AND and OR classes (2 and 3): one is a loser
  // whose parent link aims at the winner. Re-point the NOT class (the last
  // id; nothing references it as a child, so checks 1–3 stay quiet) at the
  // loser: a two-step chain the compression check must flag.
  EClassId loser = eg.find(2) == 2 ? 3 : 2;
  EClassId victim = static_cast<EClassId>(parent.size()) - 1;
  ASSERT_EQ(parent[victim], victim);
  parent[victim] = loser;
  std::string why = check::check_egraph(eg);
  EXPECT_NE(why.find("not compressed"), std::string::npos) << why;
}

// --- check_choices -----------------------------------------------------------

struct ChoiceFixture {
  Aig aig;
  AigChoices choices;
  Var rep = 0;
  Var alt = 0;
};

ChoiceFixture make_choice_fixture() {
  ChoiceFixture fx;
  Var a = fx.aig.add_pi();
  Var b = fx.aig.add_pi();
  Lit f = fx.aig.make_and(make_lit(a), make_lit(b));
  // A second structure over the same support: !(!a | !b) as its ring mate
  // (functional equivalence is not what check() verifies, structure is).
  Lit g = fx.aig.make_and(make_lit(a, true), make_lit(b, true));
  fx.aig.add_po(f);
  fx.rep = lit_var(f);
  fx.alt = lit_var(g);
  fx.choices = AigChoices(fx.aig.num_nodes());
  fx.choices.add_member(fx.rep, fx.alt, true);
  fx.choices.finalize(fx.aig);
  return fx;
}

TEST(CheckChoices, AcceptsFinalizedAnnotation) {
  ChoiceFixture fx = make_choice_fixture();
  EXPECT_EQ(check::check_choices(fx.aig, fx.choices), "");
}

TEST(CheckChoices, RejectsBrokenRingPhaseLink) {
  ChoiceFixture fx = make_choice_fixture();
  // Aim the member's repr literal at an unrelated variable: the ring says
  // one thing, the repr table another.
  CheckProbe::repr(fx.choices)[fx.alt] = make_lit(0, true);
  std::string why = check::check_choices(fx.aig, fx.choices);
  EXPECT_NE(why.find("ring member " + std::to_string(fx.alt)),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("representative " + std::to_string(fx.rep)),
            std::string::npos)
      << why;
}

TEST(CheckChoices, RejectsScheduleViolatingRingEdge) {
  ChoiceFixture fx = make_choice_fixture();
  std::vector<Var>& order = CheckProbe::order(fx.choices);
  // Swap the representative ahead of its ring member.
  std::size_t rep_pos = 0, alt_pos = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == fx.rep) rep_pos = i;
    if (order[i] == fx.alt) alt_pos = i;
  }
  ASSERT_LT(alt_pos, rep_pos);
  std::swap(order[rep_pos], order[alt_pos]);
  std::string why = check::check_choices(fx.aig, fx.choices);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("order schedules"), std::string::npos) << why;
}

// --- check_cuts --------------------------------------------------------------

TEST(CheckCuts, AcceptsRealEnumeration) {
  Aig aig = small_aig();
  CutManager cuts(aig, CutParams{});
  EXPECT_EQ(check::check_cuts(cuts), "");
}

TEST(CheckCuts, AcceptsChoiceAwareEnumeration) {
  ChoiceFixture fx = make_choice_fixture();
  CutManager cuts(fx.aig, fx.choices, CutParams{});
  EXPECT_EQ(check::check_cuts(cuts), "");
}

Var widest_cut_node(const Aig& aig, const CutManager& cuts) {
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    for (const Cut& cut : cuts.cuts(v)) {
      if (cut.size >= 2) return v;
    }
  }
  return 0;
}

TEST(CheckCuts, RejectsUnsortedLeaves) {
  Aig aig = small_aig();
  CutManager cuts(aig, CutParams{});
  Var victim = widest_cut_node(aig, cuts);
  ASSERT_NE(victim, 0u);
  for (Cut& cut : CheckProbe::cuts(cuts, victim)) {
    if (cut.size >= 2) {
      std::swap(cut.leaves[0], cut.leaves[1]);
      break;
    }
  }
  std::string why = check::check_cuts(cuts);
  EXPECT_NE(why.find("node " + std::to_string(victim)), std::string::npos)
      << why;
  EXPECT_NE(why.find("not sorted"), std::string::npos) << why;
}

TEST(CheckCuts, RejectsWrongTruthTable) {
  Aig aig = small_aig();
  CutManager cuts(aig, CutParams{});
  Var victim = widest_cut_node(aig, cuts);
  ASSERT_NE(victim, 0u);
  for (Cut& cut : CheckProbe::cuts(cuts, victim)) {
    if (cut.size >= 2) {
      cut.tt ^= 1;  // flip one minterm
      break;
    }
  }
  std::string why = check::check_cuts(cuts);
  EXPECT_NE(why.find("node " + std::to_string(victim)), std::string::npos)
      << why;
  EXPECT_NE(why.find("simulation"), std::string::npos) << why;
}

TEST(CheckCuts, WordEvaluationMatchesMintermOracle) {
  // The Shannon-mux evaluation check_cuts relies on, against the bit-serial
  // definition: output bit p is tt[minterm of the leaves' bits p].
  Rng rng(61);
  for (unsigned k = 0; k <= kMaxCutSize; ++k) {
    for (int trial = 0; trial < 50; ++trial) {
      Tt tt = rng.next() & tt_mask(k);
      Tt leaves[kMaxCutSize];
      for (Tt& word : leaves) word = rng.next();
      Tt want = 0;
      for (unsigned p = 0; p < 64; ++p) {
        unsigned m = 0;
        for (unsigned i = 0; i < k; ++i) m |= ((leaves[i] >> p) & 1u) << i;
        want |= ((tt >> m) & 1u) << p;
      }
      EXPECT_EQ(check::eval_table_word(tt, leaves, k), want) << "k=" << k;
    }
  }
}

TEST(CheckCuts, RejectsDuplicateLeafSets) {
  Aig aig = small_aig();
  CutManager cuts(aig, CutParams{});
  Var victim = 0;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (cuts.cuts(v).size() >= 2) victim = v;
  }
  ASSERT_NE(victim, 0u);
  CheckProbe::duplicate_front_cut(cuts, victim);
  std::string why = check::check_cuts(cuts);
  EXPECT_NE(why.find("node " + std::to_string(victim)), std::string::npos)
      << why;
  EXPECT_NE(why.find("duplicate"), std::string::npos) << why;
}

// --- check_netlist: LUT netlists ---------------------------------------------

TEST(CheckNetlist, AcceptsMappedLutNetlist) {
  Aig aig = small_aig();
  MappedNetlist network = map_to_luts(aig);
  EXPECT_EQ(check::check_netlist(network), "");
}

TEST(CheckNetlist, RejectsUseBeforeDefinition) {
  Aig aig = small_aig();
  MappedNetlist network = map_to_luts(aig);
  std::vector<MappedGate>& luts = CheckProbe::gates(network);
  ASSERT_GE(luts.size(), 2u);
  // Feed the first LUT from the last LUT's output: emission order broken.
  luts.front().inputs[0] = luts.back().output;
  std::string why = check::check_netlist(network);
  EXPECT_NE(why.find("gate 0"), std::string::npos) << why;
  EXPECT_NE(why.find("before definition"), std::string::npos) << why;
}

TEST(CheckNetlist, RejectsDoubleDrivenNet) {
  Aig aig = small_aig();
  MappedNetlist network = map_to_luts(aig);
  std::vector<MappedGate>& luts = CheckProbe::gates(network);
  ASSERT_GE(luts.size(), 2u);
  luts.back().output = luts.front().output;
  std::string why = check::check_netlist(network);
  EXPECT_NE(why.find("driven twice"), std::string::npos) << why;
}

TEST(CheckNetlist, RejectsTruthTableSpill) {
  Aig aig = small_aig();
  MappedNetlist network = map_to_luts(aig);
  std::vector<MappedGate>& luts = CheckProbe::gates(network);
  ASSERT_FALSE(luts.empty());
  MappedGate& lut = luts.front();
  lut.tt |= Tt{1} << (1u << lut.inputs.size());
  std::string why = check::check_netlist(network);
  EXPECT_NE(why.find("spills"), std::string::npos) << why;
}

// --- check_netlist: cell netlists ---------------------------------------------

TEST(CheckNetlist, AcceptsMappedCellNetlist) {
  Aig aig = small_aig();
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  EXPECT_EQ(check::check_netlist(netlist), "");
}

TEST(CheckNetlist, RejectsCellGateReadingUndefinedNet) {
  Aig aig = small_aig();
  MappedNetlist netlist = map_to_cells(aig, CellLibrary::asap7_like());
  std::vector<MappedGate>& gates = CheckProbe::gates(netlist);
  ASSERT_GE(gates.size(), 2u);
  // The first gate reads the last gate's output, not yet defined there.
  gates.front().inputs[0] = gates.back().output;
  std::string why = check::check_netlist(netlist);
  EXPECT_NE(why.find("gate 0"), std::string::npos) << why;
  EXPECT_NE(why.find("before definition"), std::string::npos) << why;
}

TEST(CheckNetlist, RejectsCellGateWithWrongPinCount) {
  Aig aig = small_aig();
  const CellLibrary& library = CellLibrary::asap7_like();
  MappedNetlist netlist = map_to_cells(aig, library);
  std::vector<MappedGate>& gates = CheckProbe::gates(netlist);
  ASSERT_FALSE(gates.empty());
  const std::size_t last = gates.size() - 1;
  gates[last].inputs.push_back(netlist.pis().front());
  std::string why = check::check_netlist(netlist);
  EXPECT_NE(why.find("gate " + std::to_string(last)), std::string::npos)
      << why;
  EXPECT_NE(why.find("pins"), std::string::npos) << why;
}

TEST(CheckNetlist, RejectsCellIdOutOfRange) {
  Aig aig = small_aig();
  const CellLibrary& library = CellLibrary::asap7_like();
  MappedNetlist netlist = map_to_cells(aig, library);
  std::vector<MappedGate>& gates = CheckProbe::gates(netlist);
  ASSERT_FALSE(gates.empty());
  gates.front().cell = static_cast<std::uint32_t>(library.size());
  std::string why = check::check_netlist(netlist);
  EXPECT_NE(why.find("cell id"), std::string::npos) << why;
}

// --- EM_ASSERT tier ----------------------------------------------------------

#if EMORPHIC_ENABLE_ASSERTS
TEST(CheckMacros, MakeAndRejectsDeadLiteral) {
  Aig aig;
  aig.add_pi();
  EXPECT_THROW(aig.make_and(make_lit(50), kLitTrue), check::CheckError);
}

TEST(CheckMacros, AddPoRejectsDeadLiteral) {
  Aig aig;
  aig.add_pi();
  EXPECT_THROW(aig.add_po(make_lit(50)), check::CheckError);
}
#endif

// --- FlowParams::paranoia ----------------------------------------------------

TEST(Paranoia, FullFlowRunsCleanWithParanoiaOn) {
  Aig aig = small_aig();
  FlowParams params;
  params.paranoia = true;
  params.rounds = 1;
  params.rewrite.max_iterations = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 3;
  params.sa.num_threads = 1;
  FlowResult result = Pipeline::emorphic(params).run(aig, params);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
}

TEST(Paranoia, CorruptInputAbortsTheFlowNamingTheBoundary) {
  Aig aig = small_aig();
  Var victim = 0;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) victim = v;
  }
  ASSERT_NE(victim, 0u);
  CheckProbe::set_and_fanins(aig, victim, make_lit(victim), aig.fanin1(victim));
  FlowParams params;
  params.paranoia = true;
  try {
    Pipeline::baseline(params).run(aig, params);
    FAIL() << "corrupt input must not survive paranoia validation";
  } catch (const check::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("flow input"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find(std::to_string(victim)),
              std::string::npos)
        << error.what();
  }
}

TEST(Paranoia, OffByDefaultLeavesCorruptionUndetected) {
  // Documents the contract: without paranoia (and without EMORPHIC_CHECKS
  // call sites firing on this path) validation is opt-in.
  FlowParams params;
  EXPECT_FALSE(params.paranoia);
}

}  // namespace
}  // namespace emorphic
