#pragma once
// The one covering DP of both mapping backends (tech_mapper.cpp: NPN
// cells, lut_mapper.cpp: k-LUTs): cut enumeration, the PO-cone area-flow
// reference estimate, delay-optimal phase-aware selection (pass 1) and
// required-time-aware area recovery (pass 2). A backend supplies three
// things — its matches, the cost of bridging a node's two phases, and its
// pass-2 normalization rule — and keeps only its emission (pass 3).
// docs/mapping-internals.md describes the contract.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"
#include "mapper/tech_mapper.hpp"

namespace emorphic {

namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The best implementation found so far of one polarity of one node.
struct PhaseMatch {
  double arrival = kInf;
  double area_flow = kInf;
  std::int32_t cut = -1;    // cut index at the node
  std::int32_t match = -1;  // the backend's match index within that cut
  bool via_inv = false;     // implemented as the bridge from the other phase
  bool is_const = false;    // node is semantically constant: a tie net
  bool const_val = false;   // ... of this value (in this phase)
};

struct NodeState {
  PhaseMatch phase[2];
};

/// A pending (node, phase) of a backend's demand-driven emission.
struct Want {
  Var v;
  int p;
};

/// One way to implement a cut function, as the DP sees it: the output
/// phase it produces, its cost, and which (leaf, phase) feeds pin j —
/// leaf `cut.leaves[pin_leaf[j]]`, complemented when bit j of `pin_compl`
/// is set.
struct Match {
  int phase;
  double area;
  double delay;
  unsigned num_pins;
  const std::uint8_t* pin_leaf;
  std::uint8_t pin_compl;
};

/// The one match-selection preference, lexicographic on (arrival, area
/// flow). Pass 1 and the phase bridging both use exactly this comparator,
/// so the chosen cover never depends on how a compiler or FP contraction
/// setting resolves an exact `==` tie-break.
inline bool lex_improves(double arrival, double area_flow,
                         const PhaseMatch& slot) {
  if (arrival != slot.arrival) return arrival < slot.arrival;
  return area_flow < slot.area_flow;
}

}  // namespace detail

struct MapperWorkspace::Impl {
  std::vector<detail::NodeState> state;
  std::vector<std::uint32_t> refs;
  std::vector<std::array<double, 2>> required;
  std::vector<std::array<std::uint32_t, 2>> net;
  std::vector<detail::Want> stack;
  CutArena cuts;
};

namespace detail {

/// Passes 1 and 2 over one subject graph, in a caller's workspace (or a
/// fresh one). A Backend provides
///   - `for_each_match(cut, f)`, calling `f(index, Match)` for every match
///     of a non-trivial, non-constant cut, and `match(cut, index)`;
///   - `bridge_area` / `bridge_delay`, the cost of deriving one phase of a
///     node from the other;
///   - `kNormalizedRecovery`: whether pass 2 divides a candidate's area
///     flow by the node's references before comparing it.
class CoverDp {
 public:
  CoverDp(const Aig& aig, const AigChoices* choices, const CutParams& params,
          MapperWorkspace* workspace)
      : aig_(aig),
        choices_(choices),
        ws_(workspace != nullptr ? *workspace->impl_
                                 : *local_.emplace().impl_),
        cuts_(aig, choices, params, &ws_.cuts) {
    // Fanout edges inside the PO-reachable cone only. Dead logic never
    // materializes in a cover, so its fanouts must not dilute the flow of
    // shared live nodes — and with choices this is what keeps the estimate
    // identical to plain mapping: alternative cones hang off
    // representatives but carry no PO-reachable fanout, so rings change
    // the available cuts, never the refs.
    std::vector<std::uint32_t>& refs = ws_.refs;
    refs.assign(aig.num_nodes(), 0);
    std::vector<std::uint8_t> reachable = aig.po_reachable();
    for (Var v = 1; v < aig.num_nodes(); ++v) {
      if (!reachable[v] || !aig.is_and(v)) continue;
      ++refs[lit_var(aig.fanin0(v))];
      ++refs[lit_var(aig.fanin1(v))];
    }
    for (Lit po : aig.pos()) ++refs[lit_var(po)];
  }

  const CutManager& cuts() const { return cuts_; }
  const PhaseMatch& slot(Var v, int p) const { return ws_.state[v].phase[p]; }
  /// The workspace, for the backend's emission buffers.
  MapperWorkspace::Impl& workspace() { return ws_; }

  template <class Backend>
  void select(const Backend& backend, bool area_recovery);

 private:
  /// The area-flow divisor of node `v`: its reference count, at least 1.
  double refs(Var v) const { return std::max<double>(1.0, ws_.refs[v]); }

  /// Arrival and un-normalized area flow of `m` at `cut`; false when a pin
  /// reads a phase that has no implementation yet.
  bool cost(const Cut& cut, const Match& m, double& arrival,
            double& flow) const {
    arrival = 0.0;
    flow = m.area;
    for (unsigned j = 0; j < m.num_pins; ++j) {
      const PhaseMatch& lm =
          ws_.state[cut.leaves[m.pin_leaf[j]]].phase[(m.pin_compl >> j) & 1];
      if (lm.arrival == kInf) return false;
      arrival = std::max(arrival, lm.arrival);
      flow += lm.area_flow;
    }
    arrival += m.delay;
    return true;
  }

  /// Visit every non-constant node in topological order. With choices that
  /// is the annotation's schedule, not index order: a representative's
  /// merged cuts reference leaves inside alternative cones (which may carry
  /// larger indices), whose state must be final first.
  template <class Visit>
  void forward(Visit&& visit) const {
    if (choices_ != nullptr) {
      for (Var v : choices_->order()) {
        if (v != 0) visit(v);
      }
    } else {
      for (Var v = 1; v < aig_.num_nodes(); ++v) visit(v);
    }
  }

  /// The reverse of forward(), so a node's requirement is final before its
  /// cut leaves (which may live inside alternative cones) see it.
  template <class Visit>
  void reverse(Visit&& visit) const {
    if (choices_ != nullptr) {
      const std::vector<Var>& order = choices_->order();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (*it != 0) visit(*it);
      }
    } else {
      for (Var v = static_cast<Var>(aig_.num_nodes()) - 1; v >= 1; --v) {
        visit(v);
      }
    }
  }

  const Aig& aig_;
  const AigChoices* choices_;
  std::optional<MapperWorkspace> local_;
  MapperWorkspace::Impl& ws_;
  CutManager cuts_;
};

template <class Backend>
void CoverDp::select(const Backend& backend, bool area_recovery) {
  std::vector<NodeState>& state = ws_.state;
  state.assign(aig_.num_nodes(), NodeState{});
  // Constant node: both phases available "for free" as tie nets.
  state[0].phase[0] = PhaseMatch{0.0, 0.0};
  state[0].phase[1] = PhaseMatch{0.0, 0.0};

  auto close_phases = [&](Var v) {
    for (int p = 0; p < 2; ++p) {
      const PhaseMatch& other = state[v].phase[1 - p];
      if (other.arrival == kInf || other.via_inv) continue;
      const double arrival = other.arrival + backend.bridge_delay;
      const double flow = other.area_flow + backend.bridge_area;
      PhaseMatch& mine = state[v].phase[p];
      if (lex_improves(arrival, flow, mine)) {
        mine = PhaseMatch{arrival, flow, -1, -1, true};
      }
    }
  };

  // --- Pass 1: delay-optimal matching in topological order ---------------
  forward([&](Var v) {
    if (aig_.is_pi(v)) {
      state[v].phase[0] = PhaseMatch{0.0, 0.0};
      close_phases(v);
      return;
    }
    const double refs = this->refs(v);
    const auto& node_cuts = cuts_.cuts(v);
    for (std::int32_t ci = 0; ci < static_cast<std::int32_t>(node_cuts.size());
         ++ci) {
      const Cut& cut = node_cuts[ci];
      if (cut.is_trivial(v)) continue;
      // Structural hashing removes syntactic constants, but a node can
      // still be *semantically* constant (it matches nothing then). Both
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
      backend.for_each_match(cut, [&](std::int32_t mi, const Match& m) {
        double arrival, flow;
        if (!cost(cut, m, arrival, flow)) return;
        flow /= refs;
        PhaseMatch& slot = state[v].phase[m.phase];
        if (lex_improves(arrival, flow, slot)) {
          slot = PhaseMatch{arrival, flow, ci, mi};
        }
      });
    }
    close_phases(v);
    if (state[v].phase[0].arrival == kInf &&
        state[v].phase[1].arrival == kInf) {
      throw std::runtime_error(
          "mapping: node has no match; is the cell library NPN-complete for "
          "2-input ANDs?");
    }
  });

  // --- Pass 2: required-time-aware area recovery -------------------------
  // The pass-1 cover defines the delay target; off-critical nodes re-select
  // the cheapest match that still meets their required time.
  std::vector<std::array<double, 2>>& required = ws_.required;
  required.assign(aig_.num_nodes(), {kInf, kInf});
  double target = 0.0;
  for (Lit po : aig_.pos()) {
    target = std::max(target, slot(lit_var(po), lit_is_compl(po)).arrival);
  }
  for (Lit po : aig_.pos()) {
    double& req = required[lit_var(po)][lit_is_compl(po)];
    req = std::min(req, target);
  }
  if (!area_recovery) return;

  reverse([&](Var v) {
    // Bridged phases first, so a requirement arriving at the derived phase
    // reaches the source phase before it is re-selected.
    for (int p = 0; p < 2; ++p) {
      if (state[v].phase[p].via_inv && required[v][p] != kInf) {
        required[v][1 - p] =
            std::min(required[v][1 - p], required[v][p] - backend.bridge_delay);
      }
    }
    if (!aig_.is_and(v)) return;
    const double refs = this->refs(v);
    const auto& node_cuts = cuts_.cuts(v);
    for (int p = 0; p < 2; ++p) {
      const double req = required[v][p];
      if (req == kInf) continue;  // not in the cover
      PhaseMatch& slot = state[v].phase[p];
      if (slot.via_inv || slot.is_const) continue;
      // Re-select: cheapest (area-flow) match meeting the requirement.
      double best_flow = slot.area_flow;
      for (std::int32_t ci = 0;
           ci < static_cast<std::int32_t>(node_cuts.size()); ++ci) {
        const Cut& cut = node_cuts[ci];
        if (cut.is_trivial(v)) continue;
        backend.for_each_match(cut, [&](std::int32_t mi, const Match& m) {
          double arrival, flow;
          if (m.phase != p || !cost(cut, m, arrival, flow)) return;
          if (Backend::kNormalizedRecovery) flow /= refs;
          if (arrival > req || !(flow < best_flow)) return;
          best_flow = flow;
          slot = PhaseMatch{arrival, flow, ci, mi};
        });
      }
      // Propagate requirements to the chosen match's pins.
      const Cut& cut = node_cuts[slot.cut];
      const Match m = backend.match(cut, slot.match);
      for (unsigned j = 0; j < m.num_pins; ++j) {
        double& leaf_req =
            required[cut.leaves[m.pin_leaf[j]]][(m.pin_compl >> j) & 1];
        leaf_req = std::min(leaf_req, req - m.delay);
      }
    }
  });
}

}  // namespace detail

}  // namespace emorphic
