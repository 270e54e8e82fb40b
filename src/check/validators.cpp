#include "check/validators.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "aig/choice.hpp"
#include "aig/cut.hpp"
#include "aig/truth.hpp"
#include "check/probe.hpp"
#include "egraph/egraph.hpp"
#include "mapper/netlist.hpp"
#include "util/rng.hpp"

namespace emorphic::check {

namespace {

std::string node_str(Var v) { return "node " + std::to_string(v); }

/// Bit-parallel simulation of the whole AIG over its primary inputs:
/// `num_words` 64-bit patterns per node. Exhaustive over all 2^pis input
/// combinations when the PI count allows (<= 6 + log2(num_words)),
/// pseudo-random but deterministic beyond that.
std::vector<std::vector<Tt>> simulate(const Aig& aig, unsigned num_words,
                                      bool exhaustive) {
  const std::uint32_t n = aig.num_nodes();
  std::vector<std::vector<Tt>> value(n, std::vector<Tt>(num_words, 0));
  for (Var v = 1; v < n; ++v) {
    if (aig.is_pi(v)) {
      const std::uint32_t i = aig.pi_index(v);
      for (unsigned w = 0; w < num_words; ++w) {
        if (exhaustive) {
          // Global minterm g = w*64 + bit; PI i carries bit i of g.
          value[v][w] = i < 6 ? tt_var(i, 6)
                              : (((w >> (i - 6)) & 1u) != 0 ? ~0ull : 0ull);
        } else {
          value[v][w] = splitmix64((static_cast<std::uint64_t>(v) << 32) | w);
        }
      }
      continue;
    }
    const Lit f0 = aig.fanin0(v);
    const Lit f1 = aig.fanin1(v);
    for (unsigned w = 0; w < num_words; ++w) {
      Tt a = value[lit_var(f0)][w];
      Tt b = value[lit_var(f1)][w];
      if (lit_is_compl(f0)) a = ~a;
      if (lit_is_compl(f1)) b = ~b;
      value[v][w] = a & b;
    }
  }
  return value;
}

/// Evaluate `cut`'s truth table on the simulated leaf words. The cut is
/// functionally correct iff this equals the root's own simulated word —
/// a property that holds for choice-merged cuts too (ring members agree
/// with their representative as functions of the PIs), where no single
/// structural cone walk could verify the table.
Tt eval_cut_word(const Cut& cut, const std::vector<std::vector<Tt>>& value,
                 unsigned w) {
  std::array<Tt, kMaxCutSize> leaf_words{};
  for (unsigned i = 0; i < cut.size; ++i) {
    leaf_words[i] = value[cut.leaves[i]][w];
  }
  return eval_table_word(cut.tt, leaf_words.data(), cut.size);
}

}  // namespace

Tt eval_table_word(Tt tt, const Tt* leaf_words, unsigned size) {
  // cof[m] is the output word for the minterms whose not-yet-folded leaves
  // spell m. Folding leaf i muxes each pair of cofactors that differ only
  // in that leaf's bit: 2^size - 1 muxes in all.
  std::array<Tt, 1u << kMaxCutSize> cof{};
  for (unsigned m = 0; m < (1u << size); ++m) cof[m] = 0 - ((tt >> m) & 1ull);
  for (unsigned i = 0; i < size; ++i) {
    const Tt x = leaf_words[i];
    for (unsigned m = 0; m < (1u << (size - i - 1)); ++m) {
      cof[m] = cof[2 * m] ^ (x & (cof[2 * m] ^ cof[2 * m + 1]));
    }
  }
  return cof[0];
}

std::string check_aig(const Aig& aig) {
  const std::uint32_t n = aig.num_nodes();
  if (n == 0 || !aig.is_const0(0) || aig.type(0) != Aig::NodeType::kConst0) {
    return "variable 0 is not the constant-0 node";
  }
  std::uint32_t num_ands = 0;
  std::unordered_map<std::uint64_t, Var> strash;
  strash.reserve(n);
  for (Var v = 1; v < n; ++v) {
    switch (aig.type(v)) {
      case Aig::NodeType::kConst0:
        return node_str(v) + ": duplicate constant node";
      case Aig::NodeType::kPi: {
        std::uint32_t index = aig.pi_index(v);
        if (index >= aig.num_pis() || aig.pis()[index] != v) {
          return node_str(v) + ": PI back-index " + std::to_string(index) +
                 " does not map back to the node";
        }
        break;
      }
      case Aig::NodeType::kAnd: {
        ++num_ands;
        Lit f0 = aig.fanin0(v);
        Lit f1 = aig.fanin1(v);
        if (lit_var(f0) >= v || lit_var(f1) >= v) {
          return node_str(v) + ": fanin " +
                 std::to_string(std::max(lit_var(f0), lit_var(f1))) +
                 " breaks topological order (cycle or dangling reference)";
        }
        if (lit_var(f0) == 0 || lit_var(f1) == 0) {
          return node_str(v) +
                 ": AND over a constant survived constant propagation";
        }
        if (lit_var(f0) == lit_var(f1)) {
          return node_str(v) + ": AND over a single variable (" +
                 std::to_string(lit_var(f0)) + ") survived strashing";
        }
        if (f0 > f1) {
          return node_str(v) + ": fanins not in canonical strash order";
        }
        std::uint64_t key = (static_cast<std::uint64_t>(f0) << 32) | f1;
        auto [it, inserted] = strash.emplace(key, v);
        if (!inserted) {
          return "nodes " + std::to_string(it->second) + " and " +
                 std::to_string(v) + ": structurally duplicate ANDs";
        }
        break;
      }
    }
  }
  if (num_ands != aig.num_ands()) {
    return "num_ands() reports " + std::to_string(aig.num_ands()) + " but " +
           std::to_string(num_ands) + " AND nodes exist";
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    if (lit_var(aig.po(i)) >= n) {
      return "PO " + std::to_string(i) + ": literal over dead variable " +
             std::to_string(lit_var(aig.po(i)));
    }
  }
  // The strash table. Slots first: once every full slot holds a distinct
  // live AND, the lookups below only read live nodes.
  const std::vector<Var>& slots = CheckProbe::strash_slots(aig);
  std::vector<std::uint32_t> slot_of(n, 0);  // 1 + slot index; 0 = none
  std::uint32_t full = 0;
  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    const Var v = slots[s];
    if (v == 0) continue;
    ++full;
    if (v >= n || !aig.is_and(v)) {
      return "strash slot " + std::to_string(s) + " holds " + node_str(v) +
             ", which is not a live AND";
    }
    if (slot_of[v] != 0) {
      return node_str(v) + ": held by strash slots " +
             std::to_string(slot_of[v] - 1) + " and " + std::to_string(s);
    }
    slot_of[v] = s + 1;
  }
  for (Var v = 1; v < n; ++v) {
    if (!aig.is_and(v)) continue;
    const Lit found = aig.find_and(aig.fanin0(v), aig.fanin1(v));
    if (found != make_lit(v)) {
      return node_str(v) + ": strash lookup of its fanins finds " +
             (found == kLitNone ? std::string("nothing")
                                : "literal " + std::to_string(found));
    }
  }
  if (full != aig.num_ands()) {
    return "strash table holds " + std::to_string(full) + " ANDs but " +
           "num_ands() reports " + std::to_string(aig.num_ands());
  }
  return "";
}

std::string check_egraph(const EGraph& egraph) {
  std::string why;
  if (!egraph.check_invariants(&why)) return why;
  return "";
}

std::string check_choices(const Aig& aig, const AigChoices& choices) {
  return choices.check(aig);
}

std::string check_cuts(const CutManager& cuts) {
  const Aig& aig = cuts.aig();
  const AigChoices* choices = cuts.choices();
  const std::uint32_t n = aig.num_nodes();
  // One simulation of the whole AIG backs every cut's functional check:
  // exhaustive over the PIs up to 2^12 minterms (64 words), deterministic
  // pseudo-random words beyond — still a >= 4096-pattern probabilistic
  // check per cut on large circuits.
  const bool exhaustive = aig.num_pis() <= 12;
  const unsigned num_words = !exhaustive          ? 64u
                             : aig.num_pis() <= 6 ? 1u
                                                  : 1u << (aig.num_pis() - 6);
  const std::vector<std::vector<Tt>> value = simulate(aig, num_words, exhaustive);
  for (Var v = 0; v < n; ++v) {
    const auto& list = cuts.cuts(v);
    if (v == 0) {
      // The constant node carries the single empty cut (function const-0).
      if (list.size() != 1 || list[0].size != 0 || list[0].tt != 0) {
        return "node 0: constant cut list is not the single empty cut";
      }
      continue;
    }
    if (list.empty()) return node_str(v) + ": no cuts enumerated";
    if (!list.back().is_trivial(v)) {
      return node_str(v) + ": trivial cut is not last";
    }
    const bool has_ring = choices != nullptr && choices->has_ring(v);
    for (std::size_t ci = 0; ci < list.size(); ++ci) {
      const Cut& cut = list[ci];
      if (cut.size == 0 || cut.size > cuts.params().cut_size) {
        return node_str(v) + ": cut " + std::to_string(ci) +
               " has illegal size " + std::to_string(cut.size);
      }
      for (unsigned i = 0; i < cut.size; ++i) {
        if (cut.leaves[i] >= n) {
          return node_str(v) + ": cut " + std::to_string(ci) +
                 " leaf out of range";
        }
        if (i > 0 && cut.leaves[i - 1] >= cut.leaves[i]) {
          return node_str(v) + ": cut " + std::to_string(ci) +
                 " leaves not sorted/deduplicated";
        }
      }
      if ((cut.tt & ~tt_mask(cut.size)) != 0) {
        return node_str(v) + ": cut " + std::to_string(ci) +
               " truth table spills past its " +
               std::to_string(1u << cut.size) + " minterms";
      }
      // Exact duplicates (same leaf set appearing twice).
      for (std::size_t cj = 0; cj < ci; ++cj) {
        const Cut& other = list[cj];
        if (other.size != cut.size) continue;
        if (std::equal(other.leaves.begin(), other.leaves.begin() + other.size,
                       cut.leaves.begin())) {
          return node_str(v) + ": cuts " + std::to_string(cj) + " and " +
                 std::to_string(ci) + " share one leaf set (duplicate)";
        }
        // Enumeration keeps each plain list an antichain; ring merging
        // deliberately appends member cuts without cross-variant dominance
        // filtering, so the dominance invariant only binds ring-free nodes.
        if (!has_ring && ci + 1 != list.size() && cj + 1 != list.size()) {
          if (other.subset_of(cut) || cut.subset_of(other)) {
            return node_str(v) + ": cut " + std::to_string(ci) +
                   " dominates/is dominated by cut " + std::to_string(cj);
          }
        }
      }
      // Functional check: evaluating the table on the simulated leaf words
      // must reproduce the node's own simulated word, for every pattern.
      // This is the cut's defining property as a function over the PIs, so
      // it covers choice-merged cuts (whose leaves cut a ring member's
      // cone, not v's) just as well as plain structural ones. The cut
      // machinery trusts the choice annotation rather than re-proving it,
      // so a merged cut is also accepted when it reproduces a ring
      // member's word under the annotated phase — with an honest
      // annotation the member words coincide with the representative's.
      auto matches = [&](Var root, bool compl_out) {
        const Tt flip = compl_out ? ~0ull : 0ull;
        for (unsigned w = 0; w < num_words; ++w) {
          if (eval_cut_word(cut, value, w) != (value[root][w] ^ flip)) {
            return false;
          }
        }
        return true;
      };
      bool matched = matches(v, false);
      if (!matched && has_ring) {
        for (Var m : choices->ring(v)) {
          if (matches(m, lit_is_compl(choices->repr_lit(m)))) {
            matched = true;
            break;
          }
        }
      }
      if (!matched) {
        return node_str(v) + ": cut " + std::to_string(ci) +
               " truth table does not match its cone's simulation";
      }
    }
  }
  return "";
}

std::string check_netlist(const MappedNetlist& netlist) {
  const std::size_t n = netlist.num_nets();
  std::vector<std::uint8_t> defined(n, 0);
  for (std::uint32_t net : netlist.pis()) {
    if (net >= n) return "PI net " + std::to_string(net) + " out of range";
    if (defined[net]) {
      return "net " + std::to_string(net) + " driven twice (PI)";
    }
    defined[net] = 1;
  }
  for (const auto& [net, value] : netlist.const_nets()) {
    (void)value;
    if (net >= n) {
      return "constant net " + std::to_string(net) + " out of range";
    }
    if (defined[net]) {
      return "net " + std::to_string(net) + " driven twice (constant)";
    }
    defined[net] = 1;
  }
  for (std::size_t i = 0; i < netlist.gates().size(); ++i) {
    const MappedGate& gate = netlist.gates()[i];
    auto where = [i] { return "gate " + std::to_string(i); };
    if (netlist.is_lut()) {
      if (gate.inputs.empty() || gate.inputs.size() > kMaxCutSize) {
        return where() + ": illegal LUT input count " +
               std::to_string(gate.inputs.size());
      }
    } else {
      const CellLibrary& library = netlist.library();
      if (gate.cell >= library.size()) {
        return where() + ": cell id " + std::to_string(gate.cell) +
               " out of range";
      }
      const Cell& cell = library.cell(gate.cell);
      if (gate.inputs.size() != cell.num_inputs) {
        return where() + ": " + std::to_string(gate.inputs.size()) +
               " inputs on cell " + cell.name + " with " +
               std::to_string(cell.num_inputs) + " pins";
      }
    }
    for (std::uint32_t in : gate.inputs) {
      if (in >= n) {
        return where() + ": input net " + std::to_string(in) +
               " out of range";
      }
      if (!defined[in]) {
        return where() + ": input net " + std::to_string(in) +
               " used before definition (emission order broken)";
      }
    }
    if ((gate.tt & ~tt_mask(static_cast<unsigned>(gate.inputs.size()))) != 0) {
      return where() + ": truth table spills past its inputs' minterms";
    }
    if (gate.output >= n) {
      return where() + ": output net " + std::to_string(gate.output) +
             " out of range";
    }
    if (defined[gate.output]) {
      return "net " + std::to_string(gate.output) + " driven twice (" +
             where() + ")";
    }
    defined[gate.output] = 1;
  }
  for (std::size_t i = 0; i < netlist.pos().size(); ++i) {
    std::uint32_t net = netlist.pos()[i];
    if (net >= n || !defined[net]) {
      return "PO " + std::to_string(i) + ": net " + std::to_string(net) +
             " is undefined";
    }
  }
  return "";
}

}  // namespace emorphic::check
