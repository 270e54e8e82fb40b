#include "mapper/lut_mapper.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "mapper/cover_dp.hpp"

namespace emorphic {

namespace {

using detail::PhaseMatch;
using detail::Want;

constexpr std::uint32_t kNoNet = 0xffffffffu;

/// The LUT backend of the covering DP: every cut is its own LUT, so each
/// non-constant cut has one identity match — output phase 0, unit area and
/// delay, every leaf a pin in phase 0. A complemented output is a copy of
/// the root's LUT with the negated table, so the phase bridge costs one
/// LUT of area and no delay, and the two phases' requirements merge.
struct LutMatches {
  static constexpr bool kNormalizedRecovery = true;
  static constexpr std::uint8_t kIdentity[kMaxCutSize] = {0, 1, 2, 3, 4, 5};
  double bridge_area = 1.0;
  double bridge_delay = 0.0;

  detail::Match match(const Cut& cut, std::int32_t /*mi*/) const {
    return {0, 1.0, 1.0, cut.size, kIdentity, 0};
  }
  template <class F>
  void for_each_match(const Cut& cut, F&& f) const {
    f(0, match(cut, 0));
  }
};

MappedNetlist map_luts(const Aig& aig, const AigChoices* choices,
                       const LutMapperParams& params,
                       MapperWorkspace* workspace) {
  if (params.lut_size < 2 || params.lut_size > kMaxCutSize) {
    throw std::invalid_argument(
        "map_to_luts: lut_size must be in [2, kMaxCutSize = " +
        std::to_string(kMaxCutSize) +
        "] (a LUT configuration is one cut truth table, so the enumeration "
        "bound is the backend bound), got " + std::to_string(params.lut_size));
  }
  if (params.num_cuts == 0) {
    throw std::invalid_argument(
        "map_to_luts: num_cuts must be >= 1 (the trivial cut alone covers "
        "no node)");
  }
  detail::CoverDp dp(aig, choices, CutParams{params.lut_size, params.num_cuts},
                     workspace);
  dp.select(LutMatches{}, params.area_recovery);
  const CutManager& cuts = dp.cuts();
  auto slot = [&](Var v) -> const PhaseMatch& { return dp.slot(v, 0); };

  // --- Pass 3: netlist construction ---------------------------------------
  // net[v][0] is the node's LUT, net[v][1] the negated copy a complemented
  // PO reads.
  MappedNetlist out;
  std::vector<std::array<std::uint32_t, 2>>& net = dp.workspace().net;
  net.assign(aig.num_nodes(), {kNoNet, kNoNet});
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    const Var v = aig.pis()[i];
    net[v][0] = out.add_net(aig.pi_name(i));
    out.add_pi(net[v][0]);
  }

  std::uint32_t const_net[2] = {kNoNet, kNoNet};
  auto ensure_const = [&](bool value) {
    std::uint32_t& tie = const_net[value ? 1 : 0];
    if (tie == kNoNet) {
      tie = out.add_net(value ? "const1" : "const0");
      out.set_const_net(tie, value);
    }
    return tie;
  };
  // Net of a leaf that needs no LUT emission (PI / semantic constant);
  // kNoNet for an AND node that still awaits emission.
  auto leaf_net = [&](Var leaf) -> std::uint32_t {
    if (net[leaf][0] != kNoNet) return net[leaf][0];
    if (slot(leaf).is_const) {
      net[leaf][0] = ensure_const(slot(leaf).const_val);
      return net[leaf][0];
    }
    return kNoNet;
  };

  // Demand-driven emission of the positive polarities. A complemented PO
  // does not demand its root's positive LUT — it demands the root's *cut
  // leaves* and gets a dedicated LUT with the negated table afterwards
  // (sharing the positive LUT's leaves), so a root referenced only in one
  // polarity costs exactly one LUT.
  std::vector<Want>& stack = dp.workspace().stack;
  stack.clear();
  auto need = [&](Var v) {
    if (aig.is_and(v) && !slot(v).is_const && net[v][0] == kNoNet) {
      stack.push_back(Want{v, 0});
    }
  };
  for (Lit po : aig.pos()) {
    const Var r = lit_var(po);
    if (!aig.is_and(r) || slot(r).is_const) continue;
    if (!lit_is_compl(po)) {
      need(r);
    } else {
      const Cut& cut = cuts.cuts(r)[slot(r).cut];
      for (unsigned j = 0; j < cut.size; ++j) need(cut.leaves[j]);
    }
  }

  while (!stack.empty()) {
    const Var v = stack.back().v;
    if (net[v][0] != kNoNet) {
      stack.pop_back();
      continue;
    }
    assert(slot(v).cut >= 0 && !slot(v).is_const);
    const Cut& cut = cuts.cuts(v)[slot(v).cut];
    bool pending = false;
    for (unsigned j = 0; j < cut.size; ++j) {
      if (leaf_net(cut.leaves[j]) == kNoNet) {
        stack.push_back(Want{cut.leaves[j], 0});
        pending = true;
      }
    }
    if (pending) continue;
    MappedGate lut;
    lut.inputs.resize(cut.size);
    for (unsigned j = 0; j < cut.size; ++j) {
      lut.inputs[j] = leaf_net(cut.leaves[j]);
    }
    lut.tt = cut.tt & tt_mask(cut.size);
    lut.output = out.add_net(std::string("n").append(std::to_string(v)));
    net[v][0] = lut.output;
    out.add_gate(std::move(lut));
    stack.pop_back();
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po(i);
    const Var r = lit_var(po);
    const bool compl_po = lit_is_compl(po);
    std::uint32_t po_net;
    if (aig.is_const0(r)) {
      po_net = ensure_const(compl_po);
    } else if (slot(r).is_const) {
      po_net = ensure_const(slot(r).const_val != compl_po);
    } else if (!compl_po) {
      po_net = net[r][0];
    } else if (net[r][1] != kNoNet) {
      po_net = net[r][1];
    } else {
      // Complemented root: a 1-input inverter LUT on a PI, else the root's
      // LUT again with the negated table.
      MappedGate dup;
      if (aig.is_pi(r)) {
        dup.inputs = {net[r][0]};
        dup.tt = tt_not(tt_var(0, 1), 1);
      } else {
        const Cut& cut = cuts.cuts(r)[slot(r).cut];
        dup.inputs.resize(cut.size);
        for (unsigned j = 0; j < cut.size; ++j) {
          dup.inputs[j] = leaf_net(cut.leaves[j]);
          assert(dup.inputs[j] != kNoNet);
        }
        dup.tt = tt_not(cut.tt, cut.size);
      }
      dup.output = out.add_net(
          std::string("n").append(std::to_string(r)).append("_b"));
      net[r][1] = dup.output;
      out.add_gate(std::move(dup));
      po_net = net[r][1];
    }
    out.add_po(po_net, aig.po_name(i));
  }
  EM_CHECK_EXPENSIVE(check::check_netlist(out));
  return out;
}

}  // namespace

MappedNetlist map_to_luts(const Aig& aig, const LutMapperParams& params,
                          MapperWorkspace* workspace) {
  return map_luts(aig, nullptr, params, workspace);
}

MappedNetlist map_to_luts(const ChoiceAig& caig, const LutMapperParams& params,
                          MapperWorkspace* workspace) {
  return map_luts(caig.aig, &caig.choices, params, workspace);
}

}  // namespace emorphic
