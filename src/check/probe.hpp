#pragma once
// CheckProbe: the deliberate backdoor into the core structures' private
// state, used to seed corruption in tests/check/test_validators.cpp so
// every validator of check/validators.hpp can be shown to actually catch the
// defect class it guards against (check_aig also reads the AIG's strash
// slots through it). The public APIs are (by design) unable to
// produce a cyclic AIG, a stale hashcons entry, or an unsorted cut list —
// without this seam the validators' failure paths would be dead code to the
// test suite.
//
// Never include this header from src/ outside the check subsystem.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"
#include "egraph/egraph.hpp"
#include "mapper/netlist.hpp"

namespace emorphic::check {

struct CheckProbe {
  // --- Aig -----------------------------------------------------------------
  /// Overwrite an AND node's fanin literals, bypassing strashing and the
  /// topological-order guarantee (the only way to plant a cycle).
  static void set_and_fanins(Aig& aig, Var v, Lit f0, Lit f1) {
    aig.nodes_[v].fanin0 = f0;
    aig.nodes_[v].fanin1 = f1;
  }
  /// The structural-hash slot vector (0 = empty slot). The const overload
  /// is how check_aig reads it.
  static std::vector<Var>& strash_slots(Aig& aig) { return aig.strash_; }
  static const std::vector<Var>& strash_slots(const Aig& aig) {
    return aig.strash_;
  }
  static std::uint32_t& num_ands(Aig& aig) { return aig.num_ands_; }

  // --- EGraph --------------------------------------------------------------
  static HashCons& hashcons(EGraph& egraph) { return egraph.hashcons_; }
  static std::vector<EClassId>& union_find(EGraph& egraph) {
    return egraph.parent_;
  }
  static ArenaSpan<ENode>& class_nodes(EGraph& egraph, EClassId id) {
    return egraph.class_nodes_[id];
  }

  // --- AigChoices ----------------------------------------------------------
  static std::vector<Lit>& repr(AigChoices& choices) { return choices.repr_; }
  static std::unordered_map<Var, std::vector<Var>>& rings(
      AigChoices& choices) {
    return choices.rings_;
  }
  static std::vector<Var>& order(AigChoices& choices) {
    return choices.order_;
  }

  // --- CutManager ----------------------------------------------------------
  static ArenaSpan<Cut>& cuts(CutManager& cuts, Var v) {
    return cuts.arena_->slots[v];
  }
  /// Prepend a copy of node `v`'s first cut (seeds the duplicate-cut defect
  /// the old vector-backed test planted with list.insert; spans grow only
  /// through their store, hence the dedicated seam).
  static void duplicate_front_cut(CutManager& cuts, Var v) {
    ArenaSpan<Cut>& slot = cuts.arena_->slots[v];
    cuts.arena_->store.push_back(slot, slot[0]);
    for (std::size_t i = slot.size() - 1; i > 0; --i) {
      std::swap(slot[i], slot[i - 1]);
    }
  }

  // --- MappedNetlist -------------------------------------------------------
  static std::vector<MappedGate>& gates(MappedNetlist& netlist) {
    return netlist.gates_;
  }
};

}  // namespace emorphic::check
