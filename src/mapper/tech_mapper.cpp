#include "mapper/tech_mapper.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "mapper/cover_dp.hpp"

namespace emorphic {

namespace {

using detail::kInf;
using detail::PhaseMatch;
using detail::Want;

Tt pad4(const Cut& cut) {
  std::array<std::uint8_t, 6> identity{{0, 1, 2, 3, 4, 5}};
  return tt_expand(cut.tt, cut.size, 4, identity);
}

/// The cell backend of the covering DP: NPN matches from the shared
/// matcher, inverters between phases, and area recovery on un-normalized
/// flows.
struct CellMatches {
  static constexpr bool kNormalizedRecovery = false;
  const Matcher& matcher;
  double bridge_area;
  double bridge_delay;

  const std::vector<CellMatch>& cell_matches(const Cut& cut) const {
    return matcher.match(pad4(cut), cut.size);
  }
  detail::Match view(const CellMatch& m) const {
    const Cell& cell = matcher.library().cell(m.cell);
    return {m.output_compl ? 1 : 0, cell.area, cell.delay, cell.num_inputs,
            m.pin_leaf.data(), m.pin_compl};
  }
  template <class F>
  void for_each_match(const Cut& cut, F&& f) const {
    const std::vector<CellMatch>& matches = cell_matches(cut);
    for (std::int32_t mi = 0; mi < static_cast<std::int32_t>(matches.size());
         ++mi) {
      f(mi, view(matches[mi]));
    }
  }
  detail::Match match(const Cut& cut, std::int32_t mi) const {
    return view(cell_matches(cut)[mi]);
  }
};

// The only choice-specific behavior here is the traversal order of passes
// 1 and 2 and the choice-aware cut enumeration, both in CoverDp.
MappedNetlist map_cells(const Aig& aig, const AigChoices* choices,
                        const Matcher& matcher, const MapperParams& params,
                        MapperWorkspace* workspace) {
  if (params.cut_size < 2 || params.cut_size > kMaxCellPins) {
    throw std::invalid_argument(
        "map_to_cells: cut_size must be in [2, kMaxCellPins = " +
        std::to_string(kMaxCellPins) +
        "] (matching runs in the 4-variable NPN domain; the wider "
        "kMaxCutSize bound applies to cut enumeration only)");
  }
  if (params.num_cuts == 0) {
    throw std::invalid_argument(
        "map_to_cells: num_cuts must be >= 1 (the trivial cut alone matches "
        "no cell)");
  }
  const CellLibrary& library = matcher.library();
  const Cell& inv = library.cell(library.inverter());
  const CellMatches backend{matcher, inv.area, inv.delay};
  detail::CoverDp dp(aig, choices, CutParams{params.cut_size, params.num_cuts},
                     workspace);
  dp.select(backend, params.area_recovery);
  const CutManager& cuts = dp.cuts();

  // --- Pass 3: netlist construction ---------------------------------------
  MappedNetlist netlist(&library);
  constexpr std::uint32_t kNoNet = 0xffffffffu;
  std::vector<std::array<std::uint32_t, 2>>& net = dp.workspace().net;
  net.assign(aig.num_nodes(), {kNoNet, kNoNet});
  // Primary-input nets exist up front.
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    Var v = aig.pis()[i];
    net[v][0] = netlist.add_net(aig.pi_name(i));
    netlist.add_pi(net[v][0]);
  }

  // Iterative emission: a (var, phase) is emitted after its inputs.
  std::vector<Want>& stack = dp.workspace().stack;
  stack.clear();
  for (Lit po : aig.pos()) {
    if (net[lit_var(po)][lit_is_compl(po)] == kNoNet) {
      stack.push_back(Want{lit_var(po), lit_is_compl(po)});
    }
  }

  auto net_name_for = [&](Var v, int p) {
    std::string name = "n";
    name += std::to_string(v);
    if (p == 1) name += "_b";
    return name;
  };

  while (!stack.empty()) {
    auto [v, p] = stack.back();
    if (net[v][p] != kNoNet) {
      stack.pop_back();
      continue;
    }
    if (aig.is_const0(v)) {
      net[v][p] = netlist.add_net(p == 0 ? "const0" : "const1");
      netlist.set_const_net(net[v][p], p == 1);
      stack.pop_back();
      continue;
    }
    const PhaseMatch& slot = dp.slot(v, p);
    assert(slot.arrival != kInf);
    if (slot.is_const) {
      // Semantically constant node: tie the net to this phase's value.
      net[v][p] = netlist.add_net(net_name_for(v, p));
      netlist.set_const_net(net[v][p], slot.const_val);
      stack.pop_back();
      continue;
    }
    if (slot.via_inv) {
      int src = 1 - p;
      if (net[v][src] == kNoNet) {
        stack.push_back(Want{v, src});
        continue;
      }
      std::uint32_t out_net = netlist.add_net(net_name_for(v, p));
      netlist.add_gate(
          MappedGate{library.inverter(), {net[v][src]}, out_net});
      net[v][p] = out_net;
      stack.pop_back();
      continue;
    }
    const Cut& cut = cuts.cuts(v)[slot.cut];
    const CellMatch& cm = backend.cell_matches(cut)[slot.match];
    const detail::Match m = backend.view(cm);
    auto pin = [&](unsigned j) {
      return Want{cut.leaves[m.pin_leaf[j]], (m.pin_compl >> j) & 1};
    };
    bool pending = false;
    for (unsigned j = 0; j < m.num_pins; ++j) {
      const Want in = pin(j);
      if (net[in.v][in.p] == kNoNet) {
        stack.push_back(in);
        pending = true;
      }
    }
    if (pending) continue;
    MappedGate gate;
    gate.cell = cm.cell;
    gate.inputs.resize(m.num_pins);
    for (unsigned j = 0; j < m.num_pins; ++j) {
      const Want in = pin(j);
      gate.inputs[j] = net[in.v][in.p];
    }
    gate.output = netlist.add_net(net_name_for(v, p));
    net[v][p] = gate.output;
    netlist.add_gate(std::move(gate));
    stack.pop_back();
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    netlist.add_po(net[lit_var(po)][lit_is_compl(po)], aig.po_name(i));
  }
  EM_CHECK_EXPENSIVE(check::check_netlist(netlist));
  return netlist;
}

}  // namespace

MapperWorkspace::MapperWorkspace() : impl_(std::make_unique<Impl>()) {}
MapperWorkspace::~MapperWorkspace() = default;
MapperWorkspace::MapperWorkspace(MapperWorkspace&&) noexcept = default;
MapperWorkspace& MapperWorkspace::operator=(MapperWorkspace&&) noexcept =
    default;

MappedNetlist map_to_cells(const Aig& aig, const CellLibrary& library,
                           const MapperParams& params) {
  Matcher matcher(library);
  return map_to_cells(aig, matcher, params, nullptr);
}

MappedNetlist map_to_cells(const Aig& aig, const Matcher& matcher,
                           const MapperParams& params,
                           MapperWorkspace* workspace) {
  return map_cells(aig, nullptr, matcher, params, workspace);
}

MappedNetlist map_to_cells(const ChoiceAig& caig, const Matcher& matcher,
                           const MapperParams& params,
                           MapperWorkspace* workspace) {
  return map_cells(caig.aig, &caig.choices, matcher, params, workspace);
}

MappedQor map_qor(const Aig& aig, const CellLibrary& library,
                  const MapperParams& params) {
  MappedNetlist netlist = map_to_cells(aig, library, params);
  return MappedQor{netlist.area(), netlist.delay()};
}

MappedQor map_qor(const Aig& aig, const Matcher& matcher,
                  const MapperParams& params, MapperWorkspace* workspace) {
  MappedNetlist netlist = map_to_cells(aig, matcher, params, workspace);
  return MappedQor{netlist.area(), netlist.delay()};
}

}  // namespace emorphic
