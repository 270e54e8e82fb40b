#pragma once
// The Boolean term language that e-graphs speak in E-morphic.
//
// Circuits enter the e-graph as AND/NOT terms (the AIG primitives); the
// rewrite rules of Table I introduce OR (De-Morgan) and richer structure;
// extraction lowers everything back onto AND/NOT when rebuilding an AIG.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace emorphic {

using EClassId = std::uint32_t;
inline constexpr EClassId kNoEClass = 0xffffffffu;

/// Operators of the Boolean term language.
enum class Op : std::uint8_t {
  kConst0,
  kConst1,
  kVar,   // leaf; `symbol` is the primary-input index
  kNot,   // 1 child
  kAnd,   // 2 children
  kOr,    // 2 children
  kXor,   // 2 children
};

/// Number of distinct operators (for dense per-operator tables, e.g. the
/// runner's head-operator rule index).
inline constexpr std::size_t kNumOps = 7;

/// Dense index of an operator in [0, kNumOps).
inline constexpr std::size_t op_index(Op op) {
  return static_cast<std::size_t>(op);
}

/// Arity (number of children) of an operator.
inline constexpr unsigned op_arity(Op op) {
  switch (op) {
    case Op::kConst0:
    case Op::kConst1:
    case Op::kVar:
      return 0;
    case Op::kNot:
      return 1;
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return 2;
  }
  return 0;
}

/// Is the operator commutative? Commutative e-nodes are stored child-sorted
/// (EGraph::canonicalize) and the matcher tries both child orders.
inline constexpr bool op_is_commutative(Op op) {
  return op == Op::kAnd || op == Op::kOr || op == Op::kXor;
}

/// Printable name of an operator (used by the pattern printer).
inline const char* op_name(Op op) {
  switch (op) {
    case Op::kConst0:
      return "0";
    case Op::kConst1:
      return "1";
    case Op::kVar:
      return "var";
    case Op::kNot:
      return "!";
    case Op::kAnd:
      return "&";
    case Op::kOr:
      return "|";
    case Op::kXor:
      return "^";
  }
  return "?";
}

/// An e-node: an operator applied to e-class ids.
struct ENode {
  Op op = Op::kConst0;
  std::uint32_t symbol = 0;  // only meaningful for kVar
  std::array<EClassId, 2> children{{kNoEClass, kNoEClass}};

  /// Number of children actually used (unused slots hold kNoEClass).
  unsigned arity() const { return op_arity(op); }

  // Leaf and operator builders.
  static ENode const0() { return ENode{Op::kConst0, 0, {kNoEClass, kNoEClass}}; }
  static ENode const1() { return ENode{Op::kConst1, 0, {kNoEClass, kNoEClass}}; }
  static ENode var(std::uint32_t symbol) {
    return ENode{Op::kVar, symbol, {kNoEClass, kNoEClass}};
  }
  static ENode not_of(EClassId a) { return ENode{Op::kNot, 0, {a, kNoEClass}}; }
  static ENode and_of(EClassId a, EClassId b) { return ENode{Op::kAnd, 0, {a, b}}; }
  static ENode or_of(EClassId a, EClassId b) { return ENode{Op::kOr, 0, {a, b}}; }
  static ENode xor_of(EClassId a, EClassId b) { return ENode{Op::kXor, 0, {a, b}}; }

  /// Structural equality (operator, symbol, child class ids).
  bool operator==(const ENode& other) const {
    return op == other.op && symbol == other.symbol &&
           children == other.children;
  }
};

/// Mixing hash over an e-node's full structural identity; shared by the
/// e-graph hashcons and every scratch table keyed on e-nodes.
struct ENodeHash {
  std::size_t operator()(const ENode& n) const {
    std::uint64_t h = static_cast<std::uint64_t>(n.op) * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<std::uint64_t>(n.symbol) + 0x165667b19e3779f9ull) * 0xff51afd7ed558ccdull;
    h ^= (static_cast<std::uint64_t>(n.children[0]) << 32 | n.children[1]) *
         0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace emorphic
