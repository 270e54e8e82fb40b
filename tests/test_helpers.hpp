#pragma once
// Shared helpers for the test suite: random AIG and e-graph generation,
// pattern evaluation over truth tables, functional fingerprints.

#include <vector>

#include "aig/aig.hpp"
#include "aig/sim.hpp"
#include "aig/truth.hpp"
#include "egraph/pattern.hpp"
#include "util/rng.hpp"

namespace emorphic::testing {

/// Random structurally-hashed AIG with `num_pis` inputs, `num_pos` outputs
/// and roughly `num_ands` AND nodes (combining random earlier literals).
inline Aig random_aig(unsigned num_pis, unsigned num_pos, unsigned num_ands,
                      Rng& rng) {
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < num_pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < num_ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    Lit f = aig.make_and(a, b);
    pool.push_back(f);
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    Lit po = pool[pool.size() - 1 - rng.next_below(std::min<std::size_t>(
                                        pool.size(), num_ands ? num_ands : 1))];
    if (rng.chance(0.3)) po = lit_not(po);
    aig.add_po(po);
  }
  return aig;
}

/// Random e-graph over `vars` variables and both constants with `nodes`
/// AND/OR/XOR/NOT e-nodes, each over two random earlier classes (one for
/// NOT), so every operator a rule's head can name occurs.
inline EGraph build_structured_egraph(unsigned vars, unsigned nodes,
                                      std::uint64_t seed) {
  Rng rng(seed);
  EGraph eg;
  std::vector<EClassId> pool;
  pool.push_back(eg.add_const0());
  pool.push_back(eg.add_const1());
  for (std::uint32_t i = 0; i < vars; ++i) pool.push_back(eg.add_var(i));
  for (unsigned i = 0; i < nodes; ++i) {
    EClassId a = pool[rng.next_below(pool.size())];
    EClassId b = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0:
        pool.push_back(eg.add_and(a, b));
        break;
      case 1:
        pool.push_back(eg.add_or(a, b));
        break;
      case 2:
        pool.push_back(eg.add_xor(a, b));
        break;
      default:
        pool.push_back(eg.add_not(a));
        break;
    }
  }
  return eg;
}

/// Random AIG from `seed` whose 8 POs are the last 8 AND literals made,
/// uncomplemented. The pinned seed-core saturation counts in
/// tests/egraph/test_runner.cpp depend on this exact generator.
inline Aig random_aig_tail_pos(unsigned num_pis, unsigned num_ands,
                               std::uint64_t seed) {
  Rng rng(seed);
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < num_pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < num_ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    pool.push_back(aig.make_and(a, b));
  }
  for (unsigned i = 0; i < 8; ++i) aig.add_po(pool[pool.size() - 1 - i]);
  return aig;
}

/// Append logic that structural hashing keeps but that is semantically
/// constant, over three literals of `aig`: n1 = (a&b)&(!a&c) and
/// n3 = (a&c)&(!a&b) are 0, so n2 = !n1 & !n3 is 1. Adds the outputs n2,
/// !n2, n1 and !n1: both constants, each in both phases.
inline void add_semantic_constants(Aig& aig, Lit a, Lit b, Lit c) {
  Lit n1 = aig.make_and(aig.make_and(a, b), aig.make_and(lit_not(a), c));
  Lit n3 = aig.make_and(aig.make_and(a, c), aig.make_and(lit_not(a), b));
  Lit n2 = aig.make_and(lit_not(n1), lit_not(n3));
  aig.add_po(n2, "n2");
  aig.add_po(lit_not(n2), "n2_b");
  aig.add_po(n1, "n1");
  aig.add_po(lit_not(n1), "n1_b");
}

/// Evaluate a Pattern as a truth table over `n`-variable assignments where
/// pattern variable i is input variable i (requires num_vars <= n <= 6).
inline Tt eval_pattern(const Pattern& pattern, unsigned n) {
  std::vector<Tt> value(pattern.nodes().size(), 0);
  for (std::size_t i = 0; i < pattern.nodes().size(); ++i) {
    const Pattern::Node& node = pattern.nodes()[i];
    if (node.is_var) {
      value[i] = tt_var(node.var, n);
      continue;
    }
    switch (node.op) {
      case Op::kConst0:
        value[i] = 0;
        break;
      case Op::kConst1:
        value[i] = tt_mask(n);
        break;
      case Op::kNot:
        value[i] = tt_not(value[node.children[0]], n);
        break;
      case Op::kAnd:
        value[i] = value[node.children[0]] & value[node.children[1]];
        break;
      case Op::kOr:
        value[i] = value[node.children[0]] | value[node.children[1]];
        break;
      case Op::kXor:
        value[i] = value[node.children[0]] ^ value[node.children[1]];
        break;
      case Op::kVar:
        break;  // unreachable: pattern leaves are pattern vars
    }
  }
  return value[pattern.root()] & tt_mask(n);
}

/// Strong probabilistic equivalence fingerprint.
inline bool functionally_equal(const Aig& a, const Aig& b,
                               std::uint64_t seed = 42,
                               unsigned words = 32) {
  Rng rng(seed);
  return sim_probably_equal(a, b, rng, words);
}

}  // namespace emorphic::testing
