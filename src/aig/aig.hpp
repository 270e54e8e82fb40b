#pragma once
// And-Inverter Graph (AIG): the subject-graph representation used throughout
// E-morphic, mirroring ABC's AIG package.
//
// Conventions (the ABC ones):
//  * a variable `Var` is a node index; variable 0 is the constant-0 node;
//  * a literal `Lit` is 2*var + complement, so literal 0 is constant false
//    and literal 1 is constant true;
//  * AND nodes are created through `make_and`, which performs constant
//    propagation and structural hashing (strashing), so the graph is always
//    structurally canonical;
//  * node indices are topologically ordered by construction: a node's fanins
//    always have smaller indices.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emorphic {

using Var = std::uint32_t;
using Lit = std::uint32_t;

namespace check {
struct CheckProbe;  // corruption-seeding seam for validator tests
}  // namespace check

inline constexpr Lit kLitFalse = 0;
inline constexpr Lit kLitTrue = 1;
/// "No such literal": what Aig::find_and returns for an AND not in the graph.
inline constexpr Lit kLitNone = ~Lit{0};

inline constexpr Lit make_lit(Var v, bool complement = false) {
  return (v << 1) | static_cast<Lit>(complement);
}
inline constexpr Var lit_var(Lit l) { return l >> 1; }
inline constexpr bool lit_is_compl(Lit l) { return (l & 1) != 0; }
inline constexpr Lit lit_not(Lit l) { return l ^ 1; }
inline constexpr Lit lit_notcond(Lit l, bool c) {
  return l ^ static_cast<Lit>(c);
}
inline constexpr Lit lit_regular(Lit l) { return l & ~1u; }

/// And-Inverter Graph with structural hashing.
class Aig {
 public:
  enum class NodeType : std::uint8_t { kConst0, kPi, kAnd };

  Aig();

  /// Create a primary input; returns its variable.
  Var add_pi(std::string name = "");

  /// Register a primary output driven by `lit`; returns the PO index.
  std::uint32_t add_po(Lit lit, std::string name = "");

  /// Strashed AND with constant propagation:
  ///   and(0,x)=0, and(1,x)=x, and(x,x)=x, and(x,!x)=0.
  Lit make_and(Lit a, Lit b);
  /// The literal make_and(a, b) would return if it already exists (the same
  /// constant rules apply), else kLitNone. Never creates a node.
  Lit find_and(Lit a, Lit b) const;

  // Derived connectives, all lowered onto AND/NOT.
  Lit make_or(Lit a, Lit b) { return lit_not(make_and(lit_not(a), lit_not(b))); }
  Lit make_xor(Lit a, Lit b) {
    return make_or(make_and(a, lit_not(b)), make_and(lit_not(a), b));
  }
  /// if s then t else e
  Lit make_mux(Lit s, Lit t, Lit e) {
    return make_or(make_and(s, t), make_and(lit_not(s), e));
  }
  Lit make_maj(Lit a, Lit b, Lit c) {
    return make_or(make_and(a, b), make_or(make_and(a, c), make_and(b, c)));
  }

  /// Build a conjunction (balanced) over a list of literals. Empty -> true.
  Lit make_and_n(std::vector<Lit> lits);
  /// Build a disjunction (balanced) over a list of literals. Empty -> false.
  Lit make_or_n(std::vector<Lit> lits);

  // --- structure queries -------------------------------------------------
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t num_pis() const {
    return static_cast<std::uint32_t>(pis_.size());
  }
  std::uint32_t num_pos() const {
    return static_cast<std::uint32_t>(pos_.size());
  }
  /// Number of AND nodes — the paper's (and ABC's) "size" metric.
  std::uint32_t num_ands() const { return num_ands_; }

  NodeType type(Var v) const { return nodes_[v].type; }
  bool is_const0(Var v) const { return v == 0; }
  bool is_pi(Var v) const { return nodes_[v].type == NodeType::kPi; }
  bool is_and(Var v) const { return nodes_[v].type == NodeType::kAnd; }

  Lit fanin0(Var v) const { return nodes_[v].fanin0; }
  Lit fanin1(Var v) const { return nodes_[v].fanin1; }

  const std::vector<Var>& pis() const { return pis_; }
  const std::vector<Lit>& pos() const { return pos_; }
  Lit po(std::uint32_t i) const { return pos_[i]; }
  /// Replace the driver of PO `i` (used by optimization passes).
  void set_po(std::uint32_t i, Lit lit) { pos_[i] = lit; }

  const std::string& pi_name(std::uint32_t i) const { return pi_names_[i]; }
  const std::string& po_name(std::uint32_t i) const { return po_names_[i]; }
  /// Index of the PI among pis() for a PI variable.
  std::uint32_t pi_index(Var v) const { return nodes_[v].fanin0; }

  // --- analyses ------------------------------------------------------------
  /// Per-variable logic level: PIs/const at 0, AND = 1 + max(fanins).
  std::vector<std::uint32_t> levels() const;
  /// Depth of the graph: max level over POs ("lev" in Table II).
  std::uint32_t num_levels() const;
  /// Number of fanouts of each variable (POs count as fanouts).
  std::vector<std::uint32_t> fanout_counts() const;

  /// Mark the transitive fanin cone of `root` (root included) in `mark`,
  /// which must be sized num_nodes(); already-marked nodes stop the
  /// descent, so repeated calls accumulate a union of cones cheaply.
  void mark_cone(Var root, std::vector<std::uint8_t>& mark) const;
  /// mark[v] = 1 iff v lies in the transitive fanin cone of some PO —
  /// i.e. v is live logic. Shared by the mapper's area-flow reference
  /// estimate and the choice export's compaction.
  std::vector<std::uint8_t> po_reachable() const;

  /// Dead-node elimination: rebuild keeping only the cone of the POs.
  /// Also re-strashes, so it doubles as ABC's `st`(rash) on an AIG.
  Aig cleanup() const;

  /// Rebuild with node substitutions: every use of variable `v` (fanins and
  /// POs, complement carried through) is redirected to `replacement[v]`
  /// whenever that differs from `make_lit(v)`. Each replacement literal must
  /// be over a strictly smaller variable, so chains resolve and the result
  /// stays acyclic — the contract of SAT sweeping, where a node merges into
  /// the earliest proven-equivalent representative (possibly complemented).
  /// Re-strashes and drops nodes that dangle after the redirection.
  Aig substitute(const std::vector<Lit>& replacement) const;

  /// Deep-copy the PI/PO interface (names included) without any logic.
  /// Useful when rebuilding a circuit from an e-graph.
  static Aig like(const Aig& proto);

 private:
  friend struct check::CheckProbe;

  struct Node {
    NodeType type = NodeType::kConst0;
    Lit fanin0 = 0;  // for kPi: index into pis_
    Lit fanin1 = 0;
  };

  /// and(a, b) when it needs no node (constant propagation), else kLitNone.
  static Lit fold_and(Lit a, Lit b);
  /// The slot of strash_ holding the AND over canonical fanins a < b, or the
  /// empty slot where it would go. strash_ must not be empty.
  std::size_t probe(Lit a, Lit b) const;
  /// Double strash_ (or give it its first slots) and re-insert every AND.
  void grow_strash();

  std::vector<Node> nodes_;
  std::vector<Var> pis_;
  std::vector<Lit> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  /// Structural hash: open addressing with linear probing over AND
  /// variables, 0 for an empty slot (variable 0 is never an AND). A slot's
  /// key is its node's fanin pair, so a slot is one Var. Power-of-two size,
  /// at most half full; nodes are never removed, so no tombstones.
  std::vector<Var> strash_;
  std::uint32_t num_ands_ = 0;
};

}  // namespace emorphic
