#pragma once
// The cost-model-independent frame of a cover DP, written once for both
// mapping backends (tech_mapper.cpp: NPN cells, lut_mapper.cpp: k-LUTs):
// cut enumeration, the PO-cone area-flow reference estimate, and the
// forward / reverse node schedules. Each backend keeps only its per-node
// selection kernel (docs/mapping-internals.md says why those stay two).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"

namespace emorphic::detail {

class CoverDp {
 public:
  /// Enumerate cuts into `arena` (choice-aware when `choices` is non-null)
  /// and compute the reference estimate into `refs`, which the caller owns
  /// so a mapper workspace can reuse it.
  CoverDp(const Aig& aig, const AigChoices* choices, const CutParams& params,
          CutArena* arena, ThreadPool* pool, std::vector<std::uint32_t>& refs)
      : aig_(aig),
        choices_(choices),
        cuts_(aig, choices, params, arena, pool),
        refs_(refs) {
    // Fanout edges inside the PO-reachable cone only. Dead logic never
    // materializes in a cover, so its fanouts must not dilute the flow of
    // shared live nodes — and with choices this is what keeps the estimate
    // identical to plain mapping: alternative cones hang off
    // representatives but carry no PO-reachable fanout, so rings change
    // the available cuts, never the refs.
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

  /// The area-flow divisor of node `v`: its reference count, at least 1.
  double refs(Var v) const { return std::max<double>(1.0, refs_[v]); }

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

 private:
  const Aig& aig_;
  const AigChoices* choices_;
  CutManager cuts_;
  const std::vector<std::uint32_t>& refs_;
};

}  // namespace emorphic::detail
