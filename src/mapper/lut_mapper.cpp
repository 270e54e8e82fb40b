#include "mapper/lut_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "mapper/cover_dp.hpp"
#include "util/thread_pool.hpp"

namespace emorphic {

namespace {

constexpr double kInfFlow = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoReq = 0xffffffffu;
constexpr std::uint32_t kNoNet = 0xffffffffu;

/// Best implementation of one node's positive function (LUTs absorb both
/// input and output polarity into the table, so one polarity suffices —
/// unlike the cell mapper's PhaseMatch pair).
struct LutMatch {
  std::uint32_t depth = kNoReq;  // LUT levels at the node's output
  double area_flow = kInfFlow;
  std::int32_t cut = -1;         // cut index at the node
  bool is_const = false;         // node is semantically constant
  bool const_val = false;        // ... of this value
};

/// The one selection preference, lexicographic on (depth, area flow) —
/// kept as a named helper for the same reason as the cell mapper's
/// lex_improves: pass 1 must not depend on FP tie-break accidents.
bool lex_improves(std::uint32_t depth, double flow, const LutMatch& slot) {
  if (depth != slot.depth) return depth < slot.depth;
  return flow < slot.area_flow;
}

}  // namespace

// --- the mapper --------------------------------------------------------------

struct LutWorkspace::Impl {
  std::vector<LutMatch> state;
  std::vector<std::uint32_t> required;
  std::vector<std::uint32_t> net;
  std::vector<std::uint32_t> inv_net;
  std::vector<std::uint32_t> refs;
  std::vector<Var> stack;
  CutArena cuts;
};

LutWorkspace::LutWorkspace() : impl_(std::make_unique<Impl>()) {}
LutWorkspace::~LutWorkspace() = default;
LutWorkspace::LutWorkspace(LutWorkspace&&) noexcept = default;
LutWorkspace& LutWorkspace::operator=(LutWorkspace&&) noexcept = default;

MappedNetlist map_to_luts(const Aig& aig, const LutMapperParams& params,
                          LutWorkspace* workspace, ThreadPool* pool) {
  return detail::map_luts_with_choices(aig, nullptr, params, workspace, pool);
}

MappedNetlist map_to_luts(const ChoiceAig& caig, const LutMapperParams& params,
                          LutWorkspace* workspace, ThreadPool* pool) {
  return detail::map_luts_with_choices(caig.aig, &caig.choices, params,
                                       workspace, pool);
}

namespace detail {

// Structure mirrors the cell mapper's map_with_choices: the choice-specific
// behavior is only the traversal order and the choice-aware cut
// enumeration, both in CoverDp.
MappedNetlist map_luts_with_choices(const Aig& aig, const AigChoices* choices,
                                    const LutMapperParams& params,
                                    LutWorkspace* workspace, ThreadPool* pool) {
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
  std::optional<LutWorkspace> local;
  if (workspace == nullptr) local.emplace();
  LutWorkspace::Impl& ws =
      workspace != nullptr ? *workspace->impl_ : *local->impl_;

  CutParams cut_params;
  cut_params.cut_size = params.lut_size;
  cut_params.num_cuts = params.num_cuts;
  cut_params.num_threads = params.num_threads;
  const CoverDp dp(aig, choices, cut_params, &ws.cuts, pool, ws.refs);
  const CutManager& cuts = dp.cuts();

  std::vector<LutMatch>& state = ws.state;
  state.assign(aig.num_nodes(), LutMatch{});

  // --- Pass 1: depth-optimal selection in topological order ---------------
  auto pass1_node = [&](Var v) {
    if (aig.is_pi(v)) {
      state[v] = LutMatch{0, 0.0, -1, false, false};
      return;
    }
    const double refs = dp.refs(v);
    LutMatch& slot = state[v];
    const auto& node_cuts = cuts.cuts(v);
    for (std::int32_t ci = 0; ci < static_cast<std::int32_t>(node_cuts.size());
         ++ci) {
      const Cut& cut = node_cuts[ci];
      if (cut.is_trivial(v)) continue;
      const Tt f = cut.tt & tt_mask(cut.size);
      if (f == 0 || f == tt_mask(cut.size)) {
        // Semantically constant: a free net beats any LUT; (0, 0.0) also
        // wins every lex comparison so it can never be displaced below.
        if (!slot.is_const) {
          slot = LutMatch{0, 0.0, ci, true, f != 0};
        }
        continue;
      }
      std::uint32_t depth = 0;
      double flow = 1.0;  // unit LUT area
      for (unsigned j = 0; j < cut.size; ++j) {
        const LutMatch& lm = state[cut.leaves[j]];
        depth = std::max(depth, lm.depth);
        flow += lm.area_flow;
      }
      depth += 1;  // unit LUT delay
      flow /= refs;
      if (lex_improves(depth, flow, slot)) {
        slot = LutMatch{depth, flow, ci, false, false};
      }
    }
    // Every AND node has at least the (fanin0, fanin1) 2-leaf cut, so a
    // selection always exists.
    assert(slot.depth != kNoReq);
  };
  dp.forward(pass1_node);

  // --- Pass 2: required-depth area recovery -------------------------------
  std::vector<std::uint32_t>& required = ws.required;
  required.assign(aig.num_nodes(), kNoReq);
  std::uint32_t target = 0;
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po(i);
    const Var r = lit_var(po);
    if (aig.is_and(r) && !state[r].is_const) {
      target = std::max(target, state[r].depth);
    } else if (aig.is_pi(r) && lit_is_compl(po)) {
      target = std::max<std::uint32_t>(target, 1);  // PI inverter LUT
    }
  }
  for (Lit po : aig.pos()) {
    const Var r = lit_var(po);
    required[r] = std::min(required[r], target);
  }

  if (params.area_recovery) {
    // Reverse topological order (CoverDp::reverse).
    auto pass2_node = [&](Var v) {
      if (!aig.is_and(v)) return;
      LutMatch& slot = state[v];
      const std::uint32_t req = required[v];
      if (req == kNoReq || slot.is_const) return;  // not in the cover / free
      const double refs = dp.refs(v);
      const auto& node_cuts = cuts.cuts(v);
      double best_flow = slot.area_flow;
      for (std::int32_t ci = 0;
           ci < static_cast<std::int32_t>(node_cuts.size()); ++ci) {
        const Cut& cut = node_cuts[ci];
        if (cut.is_trivial(v)) continue;
        const Tt f = cut.tt & tt_mask(cut.size);
        if (f == 0 || f == tt_mask(cut.size)) continue;  // pass 1 took these
        std::uint32_t depth = 0;
        double flow = 1.0;
        for (unsigned j = 0; j < cut.size; ++j) {
          const LutMatch& lm = state[cut.leaves[j]];
          depth = std::max(depth, lm.depth);
          flow += lm.area_flow;
        }
        depth += 1;
        flow /= refs;
        if (depth > req) continue;
        if (flow < best_flow) {
          best_flow = flow;
          slot = LutMatch{depth, flow, ci, false, false};
        }
      }
      // Propagate requirements to the chosen cut's leaves.
      const Cut& cut = node_cuts[slot.cut];
      for (unsigned j = 0; j < cut.size; ++j) {
        const Var leaf = cut.leaves[j];
        required[leaf] = std::min(required[leaf], req - 1);
      }
    };
    dp.reverse(pass2_node);
  }

  // --- Pass 3: netlist construction ---------------------------------------
  MappedNetlist out;
  std::vector<std::uint32_t>& net = ws.net;
  std::vector<std::uint32_t>& inv_net = ws.inv_net;
  net.assign(aig.num_nodes(), kNoNet);
  inv_net.assign(aig.num_nodes(), kNoNet);
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    const Var v = aig.pis()[i];
    net[v] = out.add_net(aig.pi_name(i));
    out.add_pi(net[v]);
  }

  std::uint32_t const_net[2] = {kNoNet, kNoNet};
  auto ensure_const = [&](bool value) {
    std::uint32_t& slot = const_net[value ? 1 : 0];
    if (slot == kNoNet) {
      slot = out.add_net(value ? "const1" : "const0");
      out.set_const_net(slot, value);
    }
    return slot;
  };
  // Net of a leaf that needs no LUT emission (PI / semantic constant);
  // kNoNet for an AND node that still awaits emission.
  auto leaf_net = [&](Var leaf) -> std::uint32_t {
    if (net[leaf] != kNoNet) return net[leaf];
    if (state[leaf].is_const) {
      net[leaf] = ensure_const(state[leaf].const_val);
      return net[leaf];
    }
    return kNoNet;
  };

  // Demand-driven emission of the positive polarities. A complemented PO
  // does not demand its root's positive LUT — it demands the root's *cut
  // leaves* and gets a dedicated LUT with the negated table afterwards
  // (sharing the positive LUT's leaves), so a root referenced only in one
  // polarity costs exactly one LUT.
  std::vector<Var>& stack = ws.stack;
  stack.clear();
  auto need = [&](Var v) {
    if (aig.is_and(v) && !state[v].is_const && net[v] == kNoNet) {
      stack.push_back(v);
    }
  };
  for (Lit po : aig.pos()) {
    const Var r = lit_var(po);
    if (!aig.is_and(r) || state[r].is_const) continue;
    if (!lit_is_compl(po)) {
      need(r);
    } else {
      const Cut& cut = cuts.cuts(r)[state[r].cut];
      for (unsigned j = 0; j < cut.size; ++j) need(cut.leaves[j]);
    }
  }

  while (!stack.empty()) {
    const Var v = stack.back();
    if (net[v] != kNoNet) {
      stack.pop_back();
      continue;
    }
    const LutMatch& slot = state[v];
    assert(slot.cut >= 0 && !slot.is_const);
    const Cut& cut = cuts.cuts(v)[slot.cut];
    bool pending = false;
    for (unsigned j = 0; j < cut.size; ++j) {
      if (leaf_net(cut.leaves[j]) == kNoNet) {
        stack.push_back(cut.leaves[j]);
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
    lut.output = out.add_net("n" + std::to_string(v));
    net[v] = lut.output;
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
    } else if (state[r].is_const) {
      po_net = ensure_const(state[r].const_val != compl_po);
    } else if (!compl_po) {
      po_net = net[r];
    } else if (inv_net[r] != kNoNet) {
      po_net = inv_net[r];
    } else if (aig.is_pi(r)) {
      MappedGate inv;
      inv.inputs = {net[r]};
      inv.tt = tt_not(tt_var(0, 1), 1);
      inv.output = out.add_net("n" + std::to_string(r) + "_b");
      inv_net[r] = inv.output;
      out.add_gate(std::move(inv));
      po_net = inv_net[r];
    } else {
      // Complemented root LUT: same leaves, negated table.
      const Cut& cut = cuts.cuts(r)[state[r].cut];
      MappedGate dup;
      dup.inputs.resize(cut.size);
      for (unsigned j = 0; j < cut.size; ++j) {
        dup.inputs[j] = leaf_net(cut.leaves[j]);
        assert(dup.inputs[j] != kNoNet);
      }
      dup.tt = tt_not(cut.tt, cut.size);
      dup.output = out.add_net("n" + std::to_string(r) + "_b");
      inv_net[r] = dup.output;
      out.add_gate(std::move(dup));
      po_net = inv_net[r];
    }
    out.add_po(po_net, aig.po_name(i));
  }
  EM_CHECK_EXPENSIVE(check::check_netlist(out));
  return out;
}

}  // namespace detail

}  // namespace emorphic
