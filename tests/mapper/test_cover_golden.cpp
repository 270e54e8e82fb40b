// Pins every cover both mapping backends produce on the ten EPFL-style
// circuits: cells under the default and the SA evaluator's parameters and
// 6-LUTs, each plain, choice-aware and Pareto-gated. Every gate, tie net,
// PO net, net name and the reported area/delay are folded into one digest,
// so any change to cut enumeration, selection, area recovery or emission
// shows here. The constant is mapper behaviour; re-derive it only on a
// parent commit, and only when a QoR change is the intent.

#include <gtest/gtest.h>

#include <bit>

#include "benchgen/epfl.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/choice_export.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

std::uint64_t fold_double(std::uint64_t h, double d) {
  return fold(h, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t fold_netlist(std::uint64_t h, const MappedNetlist& netlist) {
  h = fold(h, netlist.is_lut() ? 1 : 0);
  for (const MappedGate& gate : netlist.gates()) {
    h = fold(h, gate.cell);
    h = fold(h, gate.tt);
    for (std::uint32_t in : gate.inputs) h = fold(h, in);
    h = fold(h, gate.output);
  }
  for (const auto& [net, value] : netlist.const_nets()) {
    h = fold(h, (std::uint64_t{net} << 1) | (value ? 1 : 0));
  }
  for (std::uint32_t net : netlist.pis()) h = fold(h, net);
  for (std::uint32_t net : netlist.pos()) h = fold(h, net);
  for (std::uint32_t net = 0; net < netlist.num_nets(); ++net) {
    for (unsigned char c : netlist.net_name(net)) h = fold(h, c);
    h = fold(h, 0x100);
  }
  h = fold_double(h, netlist.area());
  h = fold_double(h, netlist.delay());
  return fold(h, 0xfeed);
}

std::uint64_t fold_outcome(std::uint64_t h, const ChoiceMapOutcome& outcome) {
  h = fold(h, outcome.adopted_choice ? 1 : 0);
  return fold_netlist(h, outcome.netlist);
}

TEST(Mapper, GoldenCoverDigestOverEpfl) {
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 40000;
  limits.time_limit_s = 1e9;  // a wall-clock stop would make the digest flaky
  const Matcher matcher(CellLibrary::asap7_like());
  MapperParams sa_cells;  // the SA evaluator's fast map
  sa_cells.num_cuts = 4;
  sa_cells.area_recovery = false;
  const MapperParams cell_params[] = {MapperParams{}, sa_cells};
  const LutMapperParams luts;  // K = 6

  std::uint64_t h = 0;
  for (const std::string& name : epfl_names()) {
    const Aig aig = make_epfl(name);
    CircuitEGraph ce = aig_to_egraph(aig);
    run_rewriting(ce.egraph, make_logic_rules(), limits);
    const ChoiceAig caig = egraph_to_choice_aig(
        ce, greedy_extract(ce.egraph, CostModel{CostKind::kDepth}));

    for (const MapperParams& params : cell_params) {
      h = fold_netlist(h, map_to_cells(aig, matcher, params));
      h = fold_netlist(h, map_to_cells(caig, matcher, params));
      h = fold_outcome(h, map_with_choices_gated(caig, matcher, params));
    }
    h = fold_netlist(h, map_to_luts(aig, luts));
    h = fold_netlist(h, map_to_luts(caig, luts));
    h = fold_outcome(h, map_with_choices_gated(caig, luts));
  }
  EXPECT_EQ(h, 0x7158086597afc493ull);
}

}  // namespace
}  // namespace emorphic
