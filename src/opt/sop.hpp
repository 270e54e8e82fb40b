#pragma once
// Sum-of-products machinery:
//  * irredundant SOP computation from a truth table (Minato-Morreale ISOP),
//  * algebraic factoring of an SOP into a multi-level form,
//  * arrival-aware construction of the factored form as AIG nodes —
//    the core primitive behind both `refactor` and SOP balancing [22],
//  * a per-pass memo of the factored form of each cut function.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"

namespace emorphic {

/// One product term over up to 6 variables.
struct Cube {
  std::uint8_t pos = 0;  // bit i: variable i appears positively
  std::uint8_t neg = 0;  // bit i: variable i appears negatively

  unsigned num_lits() const;
  bool operator==(const Cube& other) const = default;
};

using Sop = std::vector<Cube>;

/// Minato-Morreale irredundant SOP of `t` (n inputs). The empty SOP is
/// constant 0; a single empty cube is constant 1.
Sop isop(Tt t, unsigned n);

/// Evaluate an SOP back to a truth table (for verification).
Tt sop_to_tt(const Sop& sop, unsigned n);

/// Total literal count (the classic SOP size metric).
unsigned sop_num_lits(const Sop& sop);

/// Human-readable form, e.g. "ab' + c".
std::string sop_to_string(const Sop& sop, unsigned n);

/// A factored form: a tree of AND/OR over literals.
struct FactoredForm {
  enum class Kind : std::uint8_t { kLiteral, kAnd, kOr };
  struct Node {
    Kind kind = Kind::kLiteral;
    std::uint8_t var = 0;       // for literals
    bool complemented = false;  // for literals
    std::vector<std::uint32_t> children;

    bool operator==(const Node& other) const = default;
  };
  std::vector<Node> nodes;
  std::uint32_t root = 0;
  bool const_value = false;  // when nodes is empty: constant 0/1

  unsigned num_lits() const;
  bool operator==(const FactoredForm& other) const = default;
};

/// Algebraic factoring (quick_factor-style): repeatedly divide by the most
/// frequent literal. Produces a multi-level form with fewer literals than
/// the flat SOP whenever common factors exist.
FactoredForm factor(const Sop& sop);

/// `factor(isop(t, n))`, computed once per (table, support size): cut
/// functions repeat heavily within one pass over an AIG (on the EPFL
/// circuits `refactor` looks up each distinct one about 40 times). Both
/// functions are pure, so a hit returns exactly what a fresh call would.
/// One memo serves one pass on one thread; references stay valid for the
/// memo's lifetime.
class FactorMemo {
 public:
  const FactoredForm& get(Tt t, unsigned n);
  /// Distinct (table, support size) entries held.
  std::size_t size() const;

 private:
  std::array<std::unordered_map<Tt, FactoredForm>, 7> forms_;  // by n
};

/// Build a factored form on top of existing AIG literals, pairing the
/// earliest-arriving operands first ("SOP balancing"): `arrival[i]` is the
/// arrival time of `leaves[i]`. Returns the output literal.
Lit build_factored(Aig& aig, const FactoredForm& form,
                   const std::vector<Lit>& leaves,
                   const std::vector<double>& arrival);

/// Convenience: ISOP -> factor -> build, with unit arrivals.
Lit build_sop(Aig& aig, Tt t, unsigned n, const std::vector<Lit>& leaves);

}  // namespace emorphic
