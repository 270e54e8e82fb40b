#pragma once
// Syntactic patterns over the Boolean language and the e-matching procedure
// that finds all their instances inside an e-graph — the "search" half of a
// rewrite rule. The "apply" half instantiates the right-hand side under the
// discovered substitution and merges it with the matched class.
//
// Commutative operators are stored child-sorted in the e-graph (see
// EGraph::canonicalize), so the matcher tries both child orders for
// AND/OR/XOR patterns instead of relying on explicit commutativity rules.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"

namespace emorphic {

/// Builder for pattern trees, e.g. Pat::and_(Pat::v("a"), Pat::not_(Pat::v("b"))).
class Pat {
 public:
  /// A pattern variable: matches any e-class and binds it under `name`.
  static Pat v(const std::string& name);
  /// The constant-false leaf.
  static Pat c0();
  /// The constant-true leaf.
  static Pat c1();
  /// Negation of a subpattern.
  static Pat not_(Pat a);
  /// Conjunction of two subpatterns (matched in both child orders).
  static Pat and_(Pat a, Pat b);
  /// Disjunction of two subpatterns (matched in both child orders).
  static Pat or_(Pat a, Pat b);
  /// Exclusive-or of two subpatterns (matched in both child orders).
  static Pat xor_(Pat a, Pat b);

  struct Node {
    bool is_pattern_var = false;
    std::string var_name;
    Op op = Op::kConst0;
    std::vector<Pat> children;
  };

  const Node& node() const { return *node_; }

  /// Internal: wrap an already-built node (used by the static builders).
  explicit Pat(std::shared_ptr<Node> node) : node_(std::move(node)) {}

 private:
  std::shared_ptr<Node> node_;
};

/// A pattern compiled to a flat array with numbered pattern variables.
class Pattern {
 public:
  /// One flattened pattern node (children are emitted before their parent).
  struct Node {
    bool is_var = false;
    std::uint32_t var = 0;          // pattern-variable index
    Op op = Op::kConst0;
    std::array<std::int32_t, 2> children{{-1, -1}};  // indices into nodes_
    /// Number of operator nodes in this subtree (0 for a bare variable).
    /// The matcher explores the more structured child of a binary node
    /// first: structure binds variables through cheap equality constraints,
    /// which turns the shallow sibling into a filter instead of a fan-out.
    std::uint16_t structure = 0;
    /// Bit v set: pattern variable v occurs in this subtree.
    std::uint64_t var_mask = 0;
    /// A non-root operator subtree with an operator below it: the matcher
    /// memoizes its matches per class (see MatchMemo).
    bool memoize = false;
  };

  /// Compile a Pat tree. `var_names` collects/receives the variable
  /// numbering; share one vector between the LHS and RHS of a rule so that
  /// substitutions line up. Throws std::invalid_argument when the numbering
  /// grows past 64 variables (variable masks are one word).
  static Pattern compile(const Pat& pat, std::vector<std::string>& var_names);

  /// The flattened nodes, children-first.
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Index of the root node within nodes().
  std::int32_t root() const { return root_; }
  /// Number of distinct pattern variables.
  std::uint32_t num_vars() const { return num_vars_; }
  /// Render the pattern using `var_names` for the variables.
  std::string to_string(const std::vector<std::string>& var_names) const;

  /// Head operator of the pattern, or nullopt when the root is a bare
  /// pattern variable (which matches every e-class). The runner's rule index
  /// uses this to restrict matching to classes containing the operator.
  std::optional<Op> root_op() const {
    const Node& n = nodes_[root_];
    if (n.is_var) return std::nullopt;
    return n.op;
  }

 private:
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::uint32_t num_vars_ = 0;
};

/// A substitution: pattern-variable index -> e-class id (kNoEClass = unbound).
using Subst = std::vector<EClassId>;

/// Per-class operator statistics: how many e-nodes with each operator a
/// class holds. The matcher uses it two ways:
///  - feasibility pruning: reject a pattern subtree in O(1) when its class
///    provably holds no e-node with the required operator — without this, a
///    deep pattern like the consensus rule enumerates every
///    operator-compatible e-node at each level only to fail near the leaves;
///  - join ordering: explore the binary-pattern child with the smaller
///    candidate fanout first, so its bindings filter the expensive sibling
///    (the classic smallest-relation-first plan).
/// Build once per frozen e-graph state (the runner rebuilds it every
/// iteration); entries are keyed by canonical class id and stale after any
/// merge.
class OpPresence {
 public:
  /// Populate from a clean e-graph; `ids` must be its canonical class ids.
  void build(const EGraph& egraph, const std::vector<EClassId>& ids);

  /// Number of e-nodes with operator `op` in class `id` (canonical),
  /// saturated at 65535.
  std::uint16_t count(EClassId id, Op op) const {
    return counts_[id][op_index(op)];
  }

  /// May class `id` (canonical) contain an e-node with operator `op`?
  bool may_contain(EClassId id, Op op) const { return count(id, op) != 0; }

 private:
  std::vector<std::array<std::uint16_t, kNumOps>> counts_;
};

/// Per-class match lists of one pattern's memoized subtrees
/// (Pattern::Node::memoize), shared by every root class one rule's search
/// visits. The first visit of (subtree, class) runs the subtree's search
/// with no variable bound and stores the ordered bindings of its variables;
/// every later visit replays them, filtered by the variables already bound.
/// A pattern whose variables occur in a cycle (the consensus rules) reaches
/// the same subtree at the same class from many parents; the memo does that
/// search once. The replay is exact: the join order depends only on the
/// pattern and the frozen e-graph, and bound variables only prune, so a
/// constrained search emits exactly the filtered unconstrained sequence.
/// Valid for one pattern over one frozen e-graph: use a fresh memo when
/// either changes. Not thread-safe; give each thread its own.
class MatchMemo {
 public:
  /// Number of (subtree, class) entries held.
  std::size_t entries() const { return spans_.size(); }

 private:
  friend class PatternMatcher;
  struct Span {
    std::size_t begin = 0;  // first binding in rows_
    std::size_t count = 0;  // number of rows
  };
  const Pattern* pattern_ = nullptr;
  // Per pattern node, per class id: 1 + index into spans_, 0 = not filled.
  // Allocated on the first visit of a memoized node, a node's table on its
  // own first visit.
  std::vector<std::vector<std::uint32_t>> slots_;
  std::vector<Span> spans_;
  // One row per stored match: the node's variables in index order.
  std::vector<EClassId> rows_;
};

/// Find up to `limit` substitutions that make `pattern` equal to a term in
/// class `root`. Appends to `out`. `presence` (optional) enables O(1)
/// feasibility pruning and fanout-based join ordering at every pattern
/// depth. It never changes the *complete* match set; it can however change
/// the order matches are emitted in (the join order differs from the
/// presence-less estimate), so callers that compare `limit`-truncated
/// prefixes must pass the same `presence` on both sides — the runner always
/// passes one, whatever its index/threading configuration. `memo`
/// (optional) shares subtree searches across calls for the same pattern and
/// e-graph; the emitted sequence is the same with or without it. `steps`
/// (optional) is incremented once per pattern-node visit, a memo replay
/// counting as one.
void match_in_class(const EGraph& egraph, const Pattern& pattern, EClassId root,
                    std::vector<Subst>& out, std::size_t limit,
                    const OpPresence* presence = nullptr,
                    MatchMemo* memo = nullptr, std::size_t* steps = nullptr);

/// Instantiate `pattern` under `subst` by adding e-nodes; returns the class.
EClassId instantiate(EGraph& egraph, const Pattern& pattern, const Subst& subst);

/// A rewrite rule: lhs => rhs sharing one pattern-variable numbering.
struct Rewrite {
  std::string name;
  Pattern lhs;
  Pattern rhs;
  /// Variable numbering shared by lhs and rhs (index -> display name).
  std::vector<std::string> var_names;

  /// Compile both sides of a rule against one shared variable numbering.
  static Rewrite make(const std::string& name, const Pat& lhs, const Pat& rhs);
};

}  // namespace emorphic
