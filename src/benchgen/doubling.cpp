#include "benchgen/doubling.hpp"

#include <stdexcept>
#include <vector>

#include "opt/resyn.hpp"
#include "opt/sop_balance.hpp"

namespace emorphic {

namespace {

/// Combine two circuits with the same number of PIs into one AIG sharing
/// the PI nodes (names from `a`), with `a`'s POs (suffix "_x") followed by
/// `b`'s (suffix "_y").
Aig union_shared_pis(const Aig& a, const Aig& b) {
  if (a.num_pis() != b.num_pis()) {
    throw std::invalid_argument("union_shared_pis: PI count mismatch");
  }
  Aig out;
  std::vector<Lit> pi_lits;
  pi_lits.reserve(a.num_pis());
  for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
    pi_lits.push_back(make_lit(out.add_pi(a.pi_name(i))));
  }
  auto append_copy = [&](const Aig& src, const char* suffix) {
    std::vector<Lit> map(src.num_nodes(), kLitFalse);
    for (std::uint32_t i = 0; i < src.num_pis(); ++i) {
      map[src.pis()[i]] = pi_lits[i];
    }
    auto translate = [&map](Lit l) {
      return lit_notcond(map[lit_var(l)], lit_is_compl(l));
    };
    for (Var v = 1; v < src.num_nodes(); ++v) {
      if (!src.is_and(v)) continue;
      map[v] = out.make_and(translate(src.fanin0(v)), translate(src.fanin1(v)));
    }
    for (std::uint32_t i = 0; i < src.num_pos(); ++i) {
      out.add_po(translate(src.po(i)), src.po_name(i) + suffix);
    }
  };
  append_copy(a, "_x");
  append_copy(b, "_y");
  return out;
}

}  // namespace

Aig doubled(const Aig& base) {
  return union_shared_pis(base, sop_balance(strash(base)));
}

}  // namespace emorphic
