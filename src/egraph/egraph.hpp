#pragma once
// The e-graph: a congruence-closed union of equivalence classes of terms,
// following egg's design [16]: hash-consed e-nodes, a union-find over
// e-class ids, and deferred invariant restoration (`rebuild`).
//
// Non-destructive rewriting over this structure is what lets E-morphic keep
// *every* intermediate structure of the circuit alive simultaneously, in
// contrast to ABC's destructive local rewriting (Sec. I, insight 1).
//
// Performance notes (see docs/egraph-internals.md for the full story):
//  - E-nodes are interned in a flat open-addressing table (HashCons) instead
//    of std::unordered_map: probing walks contiguous arrays, not heap nodes.
//  - Class member/parent lists are struct-of-arrays: dense vectors of
//    ArenaSpan headers indexed by class id, with the element storage in two
//    SpanStore bump arenas. Growing a class bumps an arena pointer instead
//    of calling malloc, and rebuild() reclaims the waste merges leave
//    behind by compacting the arenas (epoch reclaim) — so a warmed-up
//    saturation loop runs allocation-free
//    (Alloc.EGraphKernelsAreAllocationFreeWhenWarm in tests/alloc holds
//    this).
//  - The union-find uses path halving, and rebuild() finishes with a full
//    compression pass so that on a *clean* e-graph every parent pointer aims
//    directly at its root. find() on a clean graph is therefore one load and
//    never writes — which is what makes the read-only parallel match phase
//    of the runner data-race free.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "egraph/hashcons.hpp"
#include "egraph/language.hpp"
#include "util/arena.hpp"

namespace emorphic {

namespace check {
struct CheckProbe;  // corruption-seeding seam for validator tests
}  // namespace check

/// Back-edge from a child class to an e-node that references it.
/// `node` is the parent e-node as it was last canonicalized; `cls` is the
/// class that e-node belongs to.
struct ParentEdge {
  ENode node;
  EClassId cls = kNoEClass;
};

/// One equivalence class, as a *view* into the e-graph's struct-of-arrays
/// storage: the e-nodes it contains plus parent back-edges used for
/// congruence repair. Returned by value from EGraph::eclass(); the
/// reference members alias the e-graph's persistent span headers, so
/// `const auto& nodes = egraph.eclass(c).nodes;` stays valid for as long
/// as the underlying storage does (i.e. until the next mutation).
struct EClass {
  /// Member e-nodes, canonical and duplicate-free on a clean e-graph.
  const ArenaSpan<ENode>& nodes;
  /// Parent back-edges consumed by EGraph::rebuild's congruence repair.
  const ArenaSpan<ParentEdge>& parents;
};

/// A congruence-closed e-graph over the Boolean language of language.hpp.
///
/// Mutations (`add`, `merge`) may leave the invariants temporarily broken;
/// `rebuild()` restores them. Queries (`find`, `eclass`, `lookup`, the
/// counters) are const and never mutate shared state, so concurrent reads of
/// a clean e-graph are safe.
class EGraph {
 public:
  EGraph() = default;

  // Move-only: the arena-backed span stores own raw storage that the span
  // headers point into; moving transfers the arenas wholesale (addresses
  // are stable), but a copy would need a deep re-layout nothing requires.
  EGraph(EGraph&&) noexcept = default;
  EGraph& operator=(EGraph&&) noexcept = default;
  EGraph(const EGraph&) = delete;
  EGraph& operator=(const EGraph&) = delete;

  /// Add an e-node (children must be existing class ids); returns its class.
  /// Hash-consing makes this idempotent.
  EClassId add(ENode node);

  /// Forget everything, keep every allocation (arena blocks, hashcons
  /// table, vector capacities) — the reuse path for running many
  /// saturations through one e-graph without allocator churn.
  void clear();

  // Convenience builders.
  EClassId add_const0() { return add(ENode::const0()); }
  EClassId add_const1() { return add(ENode::const1()); }
  EClassId add_var(std::uint32_t symbol) { return add(ENode::var(symbol)); }
  EClassId add_not(EClassId a) { return add(ENode::not_of(a)); }
  EClassId add_and(EClassId a, EClassId b) { return add(ENode::and_of(a, b)); }
  EClassId add_or(EClassId a, EClassId b) { return add(ENode::or_of(a, b)); }
  EClassId add_xor(EClassId a, EClassId b) { return add(ENode::xor_of(a, b)); }

  /// Assert two classes equal; returns the surviving root id.
  /// Invariants are restored lazily by rebuild().
  EClassId merge(EClassId a, EClassId b);

  /// Restore hash-consing and congruence after a batch of merges
  /// (egg's deferred rebuild). Returns the number of congruence-induced
  /// merges performed. Finishes by fully compressing the union-find, so a
  /// clean e-graph answers find() in one load.
  std::size_t rebuild();

  /// Canonical id of a class. Non-mutating: on a clean (rebuilt) e-graph
  /// this is a single load; while merges are pending it follows the
  /// (rank-bounded) parent chain.
  EClassId find(EClassId id) const {
    while (parent_[id] != id) id = parent_[id];
    return id;
  }

  /// Is this id its own canonical representative (a live class)?
  bool is_root(EClassId id) const { return find(id) == id; }

  /// The class `id` currently belongs to (follows the union-find).
  EClass eclass(EClassId id) const {
    EClassId root = find(id);
    return EClass{class_nodes_[root], class_parents_[root]};
  }

  /// Look up an e-node; returns kNoEClass when absent. Children are
  /// canonicalized first. Valid only when the e-graph is clean (rebuilt).
  EClassId lookup(ENode node) const;

  /// Total number of e-classes ever created (== e-nodes ever added, since
  /// every add() that misses the hash-cons creates exactly one class with
  /// one node). O(1) upper bound on num_enodes(), used for growth limits.
  std::size_t num_classes_created() const { return class_nodes_.size(); }

  /// Total number of live (canonical) e-classes.
  std::size_t num_classes() const;
  /// Total number of e-nodes across live classes.
  std::size_t num_enodes() const;

  /// All canonical class ids (stable order).
  std::vector<EClassId> class_ids() const;

  /// True if there are pending merges not yet rebuilt.
  bool is_dirty() const { return !worklist_.empty(); }

  /// Canonicalize an e-node's children in place (commutative operators also
  /// get a canonical child order) and return it.
  ENode canonicalize(ENode node) const;

  /// Verify the congruence/hash-consing invariants of a *clean* (rebuilt)
  /// e-graph; on failure, describes the violation in `why`. Used by tests
  /// and fuzzing — O(total e-nodes).
  bool check_invariants(std::string* why = nullptr) const;

 private:
  friend struct check::CheckProbe;

  EClassId make_class(ENode node);
  /// Path-halving find; used on the mutating paths where writes are safe.
  EClassId find_mut(EClassId id);
  void repair(EClassId id);
  /// Re-canonicalize and deduplicate one class's node list.
  void dedup_nodes(EClassId root);

  std::vector<EClassId> parent_;        // union-find (compressed when clean)
  std::vector<std::uint32_t> rank_;
  // Struct-of-arrays class storage: span headers dense by class id (only
  // roots hold live spans), elements in the two bump-arena stores below.
  std::vector<ArenaSpan<ENode>> class_nodes_;
  std::vector<ArenaSpan<ParentEdge>> class_parents_;
  SpanStore<ENode> node_store_;
  SpanStore<ParentEdge> parent_store_;
  HashCons hashcons_;                   // canonical e-node -> class id
  std::vector<EClassId> worklist_;      // classes needing congruence repair
  std::vector<EClassId> sweeplist_;     // parent classes possibly left stale
  // Reused scratch for repair()/dedup_nodes(): cleared (capacity kept)
  // instead of reallocated per call, so congruence repair stops being the
  // dominant allocation site of a saturation run.
  HashCons repair_seen_;
  std::vector<ParentEdge> repair_old_;
  std::vector<ParentEdge> repair_dedup_;
  HashCons dedup_uniq_;
  std::vector<ENode> dedup_scratch_;
  std::vector<EClassId> rebuild_todo_;  // rebuild(): worklist double-buffer
  std::vector<ENode> stranded_;         // rebuild(): stranded-key sweep
};

/// A designated output of an e-graph (a PO of the circuit).
struct SerializedRoot {
  EClassId id = kNoEClass;
  bool complemented = false;
  std::string name;
};

}  // namespace emorphic
