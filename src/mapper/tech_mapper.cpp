#include "mapper/tech_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "aig/cut.hpp"
#include "check/check.hpp"
#include "check/validators.hpp"
#include "mapper/cover_dp.hpp"

namespace emorphic {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct PhaseMatch {
  double arrival = kInf;
  double area_flow = kInf;
  std::int32_t cut = -1;          // cut index at the node
  std::int32_t match = -1;        // index into the matcher's match list
  bool via_inv = false;           // implemented as INV(other phase)
  bool is_const = false;          // node is semantically constant: a tie net
  bool const_val = false;         // ... of this value (in this phase)
};

struct NodeState {
  PhaseMatch phase[2];
};

/// The one match-selection preference, lexicographic on (arrival, area
/// flow). Pass 1 and the inverter phase-closing both use exactly this
/// comparator, so the chosen cover never depends on how a compiler or FP
/// contraction setting resolves an exact `==` tie-break.
bool lex_improves(double arrival, double area_flow, const PhaseMatch& slot) {
  if (arrival != slot.arrival) return arrival < slot.arrival;
  return area_flow < slot.area_flow;
}

struct Want {
  Var v;
  int p;
};

Tt pad4(const Cut& cut) {
  std::array<std::uint8_t, 6> identity{{0, 1, 2, 3, 4, 5}};
  return tt_expand(cut.tt, cut.size, 4, identity);
}

}  // namespace

struct MapperWorkspace::Impl {
  std::vector<NodeState> state;
  std::vector<std::uint32_t> refs;
  std::vector<std::array<double, 2>> required;
  std::vector<std::array<std::uint32_t, 2>> net;
  std::vector<Want> stack;
  CutArena cuts;
};

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
  return detail::map_with_choices(aig, nullptr, matcher, params, workspace);
}

MappedNetlist map_to_cells(const ChoiceAig& caig, const Matcher& matcher,
                           const MapperParams& params,
                           MapperWorkspace* workspace) {
  return detail::map_with_choices(caig.aig, &caig.choices, matcher, params,
                                  workspace);
}

namespace detail {

// The only choice-specific behavior here is the traversal order of passes
// 1 and 2 and the choice-aware cut enumeration, both in CoverDp.
MappedNetlist map_with_choices(const Aig& aig, const AigChoices* choices,
                               const Matcher& matcher,
                               const MapperParams& params,
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
  std::optional<MapperWorkspace> local;
  if (workspace == nullptr) local.emplace();
  MapperWorkspace::Impl& ws =
      workspace != nullptr ? *workspace->impl_ : *local->impl_;
  const CellLibrary& library = matcher.library();

  CutParams cut_params;
  cut_params.cut_size = params.cut_size;
  cut_params.num_cuts = params.num_cuts;
  const CoverDp dp(aig, choices, cut_params, &ws.cuts, nullptr, ws.refs);
  const CutManager& cuts = dp.cuts();

  const Cell& inv = library.cell(library.inverter());
  std::vector<NodeState>& state = ws.state;
  state.assign(aig.num_nodes(), NodeState{});

  // Constant node: both phases available "for free" as tie nets.
  state[0].phase[0] = PhaseMatch{0.0, 0.0, -1, -1, false};
  state[0].phase[1] = PhaseMatch{0.0, 0.0, -1, -1, false};

  auto close_phases = [&](Var v) {
    for (int p = 0; p < 2; ++p) {
      const PhaseMatch& other = state[v].phase[1 - p];
      if (other.arrival == kInf || other.via_inv) continue;
      double arrival = other.arrival + inv.delay;
      double flow = other.area_flow + inv.area;
      PhaseMatch& mine = state[v].phase[p];
      if (lex_improves(arrival, flow, mine)) {
        mine = PhaseMatch{arrival, flow, -1, -1, true};
      }
    }
  };

  // --- Pass 1: delay-optimal matching in topological order ---------------
  auto pass1_node = [&](Var v) {
    if (aig.is_pi(v)) {
      state[v].phase[0] = PhaseMatch{0.0, 0.0, -1, -1, false};
      close_phases(v);
      return;
    }
    const double refs = dp.refs(v);
    const auto& node_cuts = cuts.cuts(v);
    for (std::int32_t ci = 0; ci < static_cast<std::int32_t>(node_cuts.size());
         ++ci) {
      const Cut& cut = node_cuts[ci];
      if (cut.is_trivial(v)) continue;
      // Structural hashing removes syntactic constants, but a node can
      // still be *semantically* constant (it matches no cell then). Both
      // phases become free tie nets: phase p of constant c is tied to
      // c XOR p, and (0, 0.0) wins every later comparison.
      const Tt f = cut.tt & tt_mask(cut.size);
      if (f == 0 || f == tt_mask(cut.size)) {
        for (int p = 0; p < 2; ++p) {
          PhaseMatch& slot = state[v].phase[p];
          if (!slot.is_const) {
            slot = PhaseMatch{0.0, 0.0, -1, -1, false, true,
                              (f != 0) != (p == 1)};
          }
        }
        continue;
      }
      const auto& matches = matcher.match(pad4(cut), cut.size);
      for (std::int32_t mi = 0; mi < static_cast<std::int32_t>(matches.size());
           ++mi) {
        const CellMatch& m = matches[mi];
        const Cell& cell = library.cell(m.cell);
        double arrival = 0.0;
        double flow = cell.area;
        bool feasible = true;
        for (unsigned j = 0; j < cell.num_inputs; ++j) {
          Var leaf = cut.leaves[m.pin_leaf[j]];
          int ph = (m.pin_compl >> j) & 1;
          const PhaseMatch& lm = state[leaf].phase[ph];
          if (lm.arrival == kInf) {
            feasible = false;
            break;
          }
          arrival = std::max(arrival, lm.arrival);
          flow += lm.area_flow;
        }
        if (!feasible) continue;
        arrival += cell.delay;
        flow /= refs;
        int p = m.output_compl ? 1 : 0;
        PhaseMatch& slot = state[v].phase[p];
        if (lex_improves(arrival, flow, slot)) {
          slot = PhaseMatch{arrival, flow, ci, mi, false};
        }
      }
    }
    close_phases(v);
    if (state[v].phase[0].arrival == kInf &&
        state[v].phase[1].arrival == kInf) {
      throw std::runtime_error(
          "map_to_cells: node has no match; is the library NPN-complete for "
          "2-input ANDs?");
    }
  };
  dp.forward(pass1_node);

  // --- Pass 2: required-time-aware area recovery -------------------------
  // Cover of pass 1 defines the delay target; off-critical nodes re-select
  // the cheapest match that still meets their required time.
  std::vector<std::array<double, 2>>& required = ws.required;
  required.assign(aig.num_nodes(), {kInf, kInf});
  double target = 0.0;
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    int p = lit_is_compl(po) ? 1 : 0;
    target = std::max(target, state[lit_var(po)].phase[p].arrival);
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    int p = lit_is_compl(po) ? 1 : 0;
    auto& req = required[lit_var(po)][p];
    req = std::min(req, target);
  }

  if (params.area_recovery) {
    // Reverse topological order (CoverDp::reverse).
    auto pass2_node = [&](Var v) {
      if (!aig.is_and(v)) {
        // PI: propagate requirement through the phase-closing inverter.
        if (required[v][1] != kInf) {
          required[v][0] = std::min(required[v][0], required[v][1] - inv.delay);
        }
        return;
      }
      // Inverter-bridged phases first, so a requirement arriving at the
      // derived phase reaches the source phase before it is re-selected.
      for (int p = 0; p < 2; ++p) {
        if (state[v].phase[p].via_inv && required[v][p] != kInf) {
          required[v][1 - p] =
              std::min(required[v][1 - p], required[v][p] - inv.delay);
        }
      }
      for (int p = 0; p < 2; ++p) {
        double req = required[v][p];
        if (req == kInf) continue;  // not in the cover
        PhaseMatch& slot = state[v].phase[p];
        if (slot.via_inv || slot.is_const) continue;
        // Re-select: cheapest (area-flow) match meeting the requirement.
        const auto& node_cuts = cuts.cuts(v);
        double best_flow = slot.area_flow;
        for (std::int32_t ci = 0;
             ci < static_cast<std::int32_t>(node_cuts.size()); ++ci) {
          const Cut& cut = node_cuts[ci];
          if (cut.is_trivial(v)) continue;
          const auto& matches = matcher.match(pad4(cut), cut.size);
          for (std::int32_t mi = 0;
               mi < static_cast<std::int32_t>(matches.size()); ++mi) {
            const CellMatch& m = matches[mi];
            if ((m.output_compl ? 1 : 0) != p) continue;
            const Cell& cell = library.cell(m.cell);
            double arrival = 0.0;
            double flow = cell.area;
            bool feasible = true;
            for (unsigned j = 0; j < cell.num_inputs; ++j) {
              Var leaf = cut.leaves[m.pin_leaf[j]];
              int ph = (m.pin_compl >> j) & 1;
              const PhaseMatch& lm = state[leaf].phase[ph];
              if (lm.arrival == kInf) {
                feasible = false;
                break;
              }
              arrival = std::max(arrival, lm.arrival);
              flow += lm.area_flow;
            }
            if (!feasible) continue;
            arrival += cell.delay;
            if (arrival > req) continue;
            if (flow < best_flow) {
              best_flow = flow;
              slot = PhaseMatch{arrival, flow, ci, mi, false};
            }
          }
        }
        // Propagate requirements to the chosen match's leaves.
        const Cut& cut = node_cuts[slot.cut];
        const auto& matches = matcher.match(pad4(cut), cut.size);
        const CellMatch& m = matches[slot.match];
        const Cell& cell = library.cell(m.cell);
        for (unsigned j = 0; j < cell.num_inputs; ++j) {
          Var leaf = cut.leaves[m.pin_leaf[j]];
          int ph = (m.pin_compl >> j) & 1;
          required[leaf][ph] =
              std::min(required[leaf][ph], req - cell.delay);
        }
      }
    };
    dp.reverse(pass2_node);
  }

  // --- Pass 3: netlist construction ---------------------------------------
  MappedNetlist netlist(&library);
  constexpr std::uint32_t kNoNet = 0xffffffffu;
  std::vector<std::array<std::uint32_t, 2>>& net = ws.net;
  net.assign(aig.num_nodes(), {kNoNet, kNoNet});
  // Primary-input nets exist up front.
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    Var v = aig.pis()[i];
    net[v][0] = netlist.add_net(aig.pi_name(i));
    netlist.add_pi(net[v][0]);
  }

  // Iterative emission: a (var, phase) is emitted after its inputs.
  std::vector<Want>& stack = ws.stack;
  stack.clear();
  auto need = [&](Var v, int p) {
    if (net[v][p] == kNoNet) stack.push_back(Want{v, p});
  };
  for (Lit po : aig.pos()) need(lit_var(po), lit_is_compl(po) ? 1 : 0);

  auto net_name_for = [&](Var v, int p) {
    std::string name = "n" + std::to_string(v);
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
    const PhaseMatch& slot = state[v].phase[p];
    assert(slot.arrival != kInf);
    if (slot.is_const) {
      // Semantically constant node: tie the net to this phase's value.
      net[v][p] = netlist.add_net(net_name_for(v, p));
      netlist.set_const_net(net[v][p], slot.const_val);
      stack.pop_back();
      continue;
    }
    if (slot.via_inv || (aig.is_pi(v) && p == 1)) {
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
    const auto& matches = matcher.match(pad4(cut), cut.size);
    const CellMatch& m = matches[slot.match];
    const Cell& cell = library.cell(m.cell);
    bool pending = false;
    for (unsigned j = 0; j < cell.num_inputs; ++j) {
      Var leaf = cut.leaves[m.pin_leaf[j]];
      int ph = (m.pin_compl >> j) & 1;
      if (net[leaf][ph] == kNoNet) {
        stack.push_back(Want{leaf, ph});
        pending = true;
      }
    }
    if (pending) continue;
    MappedGate gate;
    gate.cell = m.cell;
    gate.inputs.resize(cell.num_inputs);
    for (unsigned j = 0; j < cell.num_inputs; ++j) {
      Var leaf = cut.leaves[m.pin_leaf[j]];
      int ph = (m.pin_compl >> j) & 1;
      gate.inputs[j] = net[leaf][ph];
    }
    gate.output = netlist.add_net(net_name_for(v, p));
    net[v][p] = gate.output;
    netlist.add_gate(std::move(gate));
    stack.pop_back();
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    int p = lit_is_compl(po) ? 1 : 0;
    netlist.add_po(net[lit_var(po)][p], aig.po_name(i));
  }
  EM_CHECK_EXPENSIVE(check::check_netlist(netlist));
  return netlist;
}

}  // namespace detail

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
