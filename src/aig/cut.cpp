#include "aig/cut.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "aig/choice.hpp"
#include "check/check.hpp"
#include "check/validators.hpp"

namespace emorphic {

namespace {

/// Bit (leaf & 63) per leaf: a subset's signature is a subset of its
/// superset's, but distinct leaves 64 apart share a bit.
std::uint64_t leaf_signature(const Cut& c) {
  std::uint64_t sig = 0;
  for (unsigned i = 0; i < c.size; ++i) sig |= 1ull << (c.leaves[i] & 63);
  return sig;
}

/// Union of the sorted leaf sets of `a` and `b` into `out`; false when it
/// exceeds `k` leaves.
bool merge_leaves(const Cut& a, const Cut& b, unsigned k, Cut& out) {
  unsigned i = 0, j = 0, n = 0;
  while (i < a.size || j < b.size) {
    Var next = 0;
    if (j >= b.size || (i < a.size && a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i];
      if (j < b.size && b.leaves[j] == next) ++j;
      ++i;
    } else {
      next = b.leaves[j];
      ++j;
    }
    if (n >= k) return false;
    out.leaves[n++] = next;
  }
  out.size = static_cast<std::uint8_t>(n);
  return true;
}

/// Position of each leaf of `sub` among the leaves of `cut` (sub ⊆ cut).
std::array<std::uint8_t, 6> leaf_positions(const Cut& sub, const Cut& cut) {
  std::array<std::uint8_t, 6> pos{};
  unsigned j = 0;
  for (unsigned i = 0; i < sub.size; ++i) {
    while (cut.leaves[j] != sub.leaves[i]) ++j;
    pos[i] = static_cast<std::uint8_t>(j);
  }
  return pos;
}

Cut trivial_cut(Var v) {
  Cut trivial;
  trivial.size = 1;
  trivial.leaves[0] = v;
  trivial.tt = tt_var(0, 1);
  return trivial;
}

}  // namespace

bool Cut::subset_of(const Cut& other) const {
  unsigned j = 0;
  for (unsigned i = 0; i < size; ++i) {
    while (j < other.size && other.leaves[j] < leaves[i]) ++j;
    if (j >= other.size || other.leaves[j] != leaves[i]) return false;
  }
  return true;
}

CutManager::CutManager(const Aig& aig, const CutParams& params, CutArena* arena)
    : CutManager(aig, static_cast<const AigChoices*>(nullptr), params, arena) {}

CutManager::CutManager(const Aig& aig, const AigChoices& choices,
                       const CutParams& params, CutArena* arena)
    : CutManager(aig, &choices, params, arena) {}

CutManager::CutManager(const Aig& aig, const AigChoices* choices,
                       const CutParams& params, CutArena* arena)
    : aig_(aig),
      params_(params),
      choices_(choices),
      arena_(arena != nullptr ? arena : &own_) {
  // A 1-feasible cut cannot cover an AND node and an oversize cut overflows
  // Cut::leaves; both are hard errors in every build mode, not just asserts.
  if (params_.cut_size < 2 || params_.cut_size > kMaxCutSize) {
    throw std::invalid_argument(
        "CutManager: cut_size must be in [2, " + std::to_string(kMaxCutSize) +
        "], got " + std::to_string(params_.cut_size));
  }
  const std::size_t n = aig_.num_nodes();
  if (choices_ != nullptr &&
      (choices_->size() != n || choices_->order().size() != n)) {
    throw std::invalid_argument(
        "CutManager: choice annotation does not fit the AIG (missing "
        "finalize()?)");
  }
  // Recycle the arena: grow the header vector if needed, then start a new
  // epoch — every header is dropped and the element store rewinds keeping
  // its blocks, so a warmed-up arena enumerates without a single malloc.
  if (arena_->slots.size() < n) arena_->slots.resize(n);
  arena_->reset_epoch();
  arena_->levels.assign(n, 0);
  for (Var v = 1; v < aig_.num_nodes(); ++v) {
    if (!aig_.is_and(v)) continue;
    arena_->levels[v] = 1 + std::max(arena_->levels[lit_var(aig_.fanin0(v))],
                                     arena_->levels[lit_var(aig_.fanin1(v))]);
  }

  // Constant node: a single empty cut whose function is constant 0.
  arena_->store.push_back(arena_->slots[0], Cut{});

  // With choices, a representative's merged list must be complete before
  // any node consumes it, and a ring member can carry a *larger* index
  // than its representative — so the traversal follows the annotation's
  // schedule (members before representative) instead of index order.
  if (choices_ != nullptr) {
    for (Var v : choices_->order()) process_node(v);
  } else {
    for (Var v = 1; v < aig_.num_nodes(); ++v) process_node(v);
  }
  EM_CHECK_EXPENSIVE(check::check_cuts(*this));
}

void CutManager::process_node(Var v) {
  if (v == 0) return;
  if (aig_.is_pi(v)) {
    arena_->store.push_back(arena_->slots[v], trivial_cut(v));
    return;
  }
  compute(v);
  if (choices_ != nullptr && choices_->has_ring(v)) merge_choice_cuts(v);
}

void CutManager::merge_choice_cuts(Var rep) {
  SpanStore<Cut>& store = arena_->store;
  ArenaSpan<Cut>& slot = arena_->slots[rep];
  // One up-front reservation bounds the list at its 2*num_cuts+1 maximum,
  // so the pushes below never grow (and thus never retire arena storage).
  store.reserve(slot, slot.size() + params_.num_cuts);
  // The plain list ends with the trivial cut; member cuts slot in before it
  // so the "trivial cut last" contract survives merging.
  Cut trivial = slot.back();
  slot.pop_back();

  auto already_present = [&](const Cut& cut) {
    for (const Cut& c : slot) {
      if (c.size != cut.size) continue;
      if (std::equal(c.leaves.begin(), c.leaves.begin() + c.size,
                     cut.leaves.begin())) {
        return true;  // same leaves => same function: a true duplicate
      }
    }
    return false;
  };

  // Append up to num_cuts member cuts. Plain cuts keep their positions and
  // are never displaced — on ties the mapper therefore lands on exactly the
  // plain selection, and choice mapping can only match plain mapping or
  // beat it.
  std::size_t budget = params_.num_cuts;
  for (Var m : choices_->ring(rep)) {
    if (budget == 0) break;
    const bool phase = lit_is_compl(choices_->repr_lit(m));
    for (const Cut& member_cut : arena_->slots[m]) {
      if (budget == 0) break;
      if (member_cut.is_trivial(m)) continue;
      Cut adjusted = member_cut;
      if (phase) adjusted.tt = tt_not(adjusted.tt, adjusted.size);
      if (already_present(adjusted)) continue;
      store.push_back(slot, adjusted);
      --budget;
    }
  }
  store.push_back(slot, trivial);
}

void CutManager::compute(Var v) {
  const Lit f0 = aig_.fanin0(v);
  const Lit f1 = aig_.fanin1(v);
  const auto& cuts0 = arena_->slots[lit_var(f0)];
  const auto& cuts1 = arena_->slots[lit_var(f1)];
  const unsigned k = params_.cut_size;

  CutScratch& scratch = arena_->scratch;
  std::vector<std::uint64_t>& sigs1 = scratch.sigs;
  sigs1.clear();
  for (const Cut& b : cuts1) sigs1.push_back(leaf_signature(b));
  std::vector<CutCandidate>& result = scratch.candidates;
  result.clear();

  // Merge leaf sets only; truth tables wait until after truncation. The
  // signature test only rules dominance out; subset_of decides it.
  for (std::uint32_t i = 0; i < cuts0.size(); ++i) {
    const Cut& a = cuts0[i];
    const std::uint64_t sig_a = leaf_signature(a);
    for (std::uint32_t j = 0; j < cuts1.size(); ++j) {
      const std::uint64_t sig = sig_a | sigs1[j];
      // More signature bits than K means more than K distinct leaves.
      if (static_cast<unsigned>(std::popcount(sig)) > k) continue;
      CutCandidate merged;
      if (!merge_leaves(a, cuts1[j], k, merged.cut)) continue;
      bool dominated = false;
      for (const CutCandidate& c : result) {
        if ((c.sig & ~sig) == 0 && c.cut.subset_of(merged.cut)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(result, [&](const CutCandidate& c) {
        return (sig & ~c.sig) == 0 && merged.cut.subset_of(c.cut);
      });
      merged.sig = sig;
      merged.a = i;
      merged.b = j;
      result.push_back(merged);
    }
  }

  // Priority: smaller cuts first, then cuts whose leaves sit lower in the
  // graph (a proxy for better arrival times, as in the `if` mapper). The
  // key is computed once per survivor. std::sort's order among equal keys
  // is part of the cut lists, so a stable sort, an extra tie-break or a
  // different key expression would change QoR.
  for (CutCandidate& c : result) {
    std::uint64_t sum = 0;
    for (unsigned l = 0; l < c.cut.size; ++l) {
      sum += arena_->levels[c.cut.leaves[l]];
    }
    c.key = c.cut.size == 0 ? 0.0 : static_cast<double>(sum) / c.cut.size;
  }
  std::sort(result.begin(), result.end(),
            [](const CutCandidate& x, const CutCandidate& y) {
              if (x.cut.size != y.cut.size) return x.cut.size < y.cut.size;
              return x.key < y.key;
            });
  const std::size_t kept = std::min<std::size_t>(result.size(),
                                                 params_.num_cuts);

  // Truth tables for the kept cuts only: expand each operand function onto
  // the merged support, complement per the AIG edge, and conjoin. The span
  // is reserved exact-fit; the trivial cut is always kept (last) so mapping
  // can fall back on it.
  SpanStore<Cut>& store = arena_->store;
  ArenaSpan<Cut>& slot = arena_->slots[v];
  store.reserve(slot, kept + 1);
  for (std::size_t c = 0; c < kept; ++c) {
    Cut cut = result[c].cut;
    const Cut& a = cuts0[result[c].a];
    const Cut& b = cuts1[result[c].b];
    Tt ta = tt_expand(a.tt, a.size, cut.size, leaf_positions(a, cut));
    Tt tb = tt_expand(b.tt, b.size, cut.size, leaf_positions(b, cut));
    if (lit_is_compl(f0)) ta = ~ta;
    if (lit_is_compl(f1)) tb = ~tb;
    cut.tt = ta & tb & tt_mask(cut.size);
    store.push_back(slot, cut);
  }
  store.push_back(slot, trivial_cut(v));
}

}  // namespace emorphic
