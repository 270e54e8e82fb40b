#pragma once
// k-feasible cut enumeration with priority cuts, following Mishchenko et
// al.'s priority-cut mapper [23] that both the paper's baseline flow
// (`if -g -K 6 -C 8`) and the standard-cell mapper (`map`) are built on.
//
// Each cut carries its local function as a truth table over the (sorted)
// leaves, derived from the two fanin cuts it merges, so complemented AIG
// edges inside the cone are absorbed into the cut function.
//
// A node's list is built in the order that keeps the expensive work on the
// cuts that survive: merge the fanin leaf sets of every pair; drop
// dominated candidates; compute each survivor's priority key once; sort and
// truncate to C; and only then build truth tables, for the kept cuts alone
// (at most C of up to (C+1)^2 candidates). Dominance tests a 64-bit leaf
// signature (bit `leaf & 63` per leaf) before `Cut::subset_of`. The
// signature is a necessary condition only: distinct leaves can share a bit,
// so a passing signature always goes on to the exact subset test.
//
// When an AigChoices annotation (aig/choice.hpp) is supplied, enumeration
// is *choice-aware*: nodes are visited in the annotation's evaluation order
// and, at each choice-class representative, the cut sets of all ring
// members are merged (complement-normalized) into the representative's
// list. Cuts therefore cross structural variants — the property ABC's
// `if` mapper gets from `dch` choices — and the mapper picks the best
// match over the whole class (see docs/mapping-internals.md).
//
// Enumeration runs on one thread: a dependency level holds too little work
// per node to pay for handing it to a pool (docs/mapping-internals.md,
// "Enumeration is serial").

#include <array>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"
#include "util/arena.hpp"

namespace emorphic {

class AigChoices;

namespace check {
struct CheckProbe;  // corruption-seeding seam for validator tests
}  // namespace check

/// Hard upper bound on cut width: the truth table of a cut function must
/// fit one 64-bit word (2^6 minterms). This is the *enumeration* limit —
/// SOP balancing runs at the full K = 6; standard-cell matching is further
/// bounded by kMaxCellPins (mapper/cell_library.hpp), the NPN matcher's
/// 4-variable domain.
inline constexpr unsigned kMaxCutSize = 6;

struct Cut {
  std::array<Var, kMaxCutSize> leaves{};  // sorted ascending, [0, size)
  std::uint8_t size = 0;
  Tt tt = 0;  // function of the root in terms of the leaves

  bool is_trivial(Var v) const { return size == 1 && leaves[0] == v; }

  /// True if every leaf of this cut also appears in `other` (domination).
  bool subset_of(const Cut& other) const;
};

struct CutParams {
  unsigned cut_size = 6;   // K: maximum number of leaves
  unsigned num_cuts = 8;   // C: priority cuts kept per node (plus trivial)
};

/// One merged cut while its node's list is being built. The truth table is
/// left unset until the candidate survives dominance and truncation; `a`
/// and `b` name the fanin cuts it is built from then.
struct CutCandidate {
  Cut cut;                // leaves and size; tt filled in for kept cuts
  std::uint64_t sig = 0;  // bit (leaf & 63) per leaf
  double key = 0.0;       // average leaf level (priority tie-breaker)
  std::uint32_t a = 0;    // index into the fanin0 cut list
  std::uint32_t b = 0;    // index into the fanin1 cut list
};

/// Workspace for building one node's cut list, reused across nodes and
/// enumerations.
struct CutScratch {
  std::vector<CutCandidate> candidates;  // undominated candidates so far
  std::vector<std::uint64_t> sigs;       // leaf signatures of fanin1's cuts
};

/// Reusable cut storage. Hot paths (the SA cost evaluator) construct one
/// CutManager per candidate AIG; routing them through a caller-owned arena
/// keeps the storage alive across candidates so repeated enumerations stop
/// churning the allocator. Per-node cut lists are ArenaSpan headers whose
/// elements live in bump-arena SpanStores: every enumeration is one arena
/// epoch (the stores rewind wholesale at construction), so a warmed-up
/// arena re-enumerates with zero mallocs. Not thread-safe across
/// CutManagers: one arena per concurrently-live manager.
struct CutArena {
  std::vector<ArenaSpan<Cut>> slots;     // per-node cut lists (headers)
  SpanStore<Cut> store;                  // element storage of every list
  CutScratch scratch;                    // merge workspace for one node
  std::vector<std::uint32_t> levels;     // cut priority ordering

  /// Start a new enumeration epoch: drop every span header and rewind the
  /// stores, keeping all capacity.
  void reset_epoch() {
    for (ArenaSpan<Cut>& s : slots) s = ArenaSpan<Cut>{};
    store.reset();
  }
};

/// Enumerates priority cuts bottom-up for every node of an AIG.
/// Throws std::invalid_argument unless 2 <= cut_size <= kMaxCutSize.
class CutManager {
 public:
  /// Plain enumeration.
  CutManager(const Aig& aig, const CutParams& params,
             CutArena* arena = nullptr);

  /// Choice-aware enumeration: traverse in `choices.order()` (which must be
  /// finalized) and merge every ring member's cuts into its
  /// representative's list, complemented as the member's phase dictates.
  /// Every cut of a representative then expresses the representative's
  /// positive function, whatever variant it was enumerated in. Throws
  /// std::invalid_argument when the annotation does not fit the AIG.
  CutManager(const Aig& aig, const AigChoices& choices,
             const CutParams& params, CutArena* arena = nullptr);

  /// One constructor for both: choice-aware when `choices` is non-null,
  /// plain otherwise.
  CutManager(const Aig& aig, const AigChoices* choices,
             const CutParams& params, CutArena* arena);

  // arena_ may point at the own_ member, so compiler-generated copies/moves
  // would dangle.
  CutManager(const CutManager&) = delete;
  CutManager& operator=(const CutManager&) = delete;

  /// Cuts of node `v`; the trivial cut is always last. For a choice-class
  /// representative this is the merged, cross-variant list: the plain cuts
  /// first (in their plain priority order, so choice-free behavior is
  /// bit-identical to the plain constructor), then up to `num_cuts`
  /// deduplicated member cuts.
  const ArenaSpan<Cut>& cuts(Var v) const { return arena_->slots[v]; }

  const Aig& aig() const { return aig_; }
  const CutParams& params() const { return params_; }
  /// The choice annotation enumeration merged across, or null for the plain
  /// pass (check::check_cuts keys its per-node invariants off this).
  const AigChoices* choices() const { return choices_; }

 private:
  friend struct check::CheckProbe;

  void process_node(Var v);
  void compute(Var v);
  void merge_choice_cuts(Var rep);

  const Aig& aig_;
  CutParams params_;
  const AigChoices* choices_;  // null = plain enumeration
  CutArena own_;      // used when no external arena is provided
  CutArena* arena_;   // &own_ or the caller's reusable arena
};

}  // namespace emorphic
