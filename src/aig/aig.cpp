#include "aig/aig.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "check/check.hpp"
#include "check/validators.hpp"

namespace emorphic {

Aig::Aig() {
  nodes_.push_back(Node{NodeType::kConst0, 0, 0});  // variable 0
}

Var Aig::add_pi(std::string name) {
  Var v = static_cast<Var>(nodes_.size());
  Node node;
  node.type = NodeType::kPi;
  node.fanin0 = static_cast<Lit>(pis_.size());
  nodes_.push_back(node);
  pis_.push_back(v);
  if (name.empty()) name = "pi" + std::to_string(pis_.size() - 1);
  pi_names_.push_back(std::move(name));
  return v;
}

std::uint32_t Aig::add_po(Lit lit, std::string name) {
  EM_ASSERT(lit_var(lit) < nodes_.size(),
            "add_po: literal over dead variable " +
                std::to_string(lit_var(lit)));
  std::uint32_t index = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(lit);
  if (name.empty()) name = "po" + std::to_string(index);
  po_names_.push_back(std::move(name));
  return index;
}

Lit Aig::fold_and(Lit a, Lit b) {
  if (a == kLitFalse || b == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (b == kLitTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  return kLitNone;
}

std::size_t Aig::probe(Lit a, Lit b) const {
  // Fibonacci hashing: the top log2(size) bits of the key times 2^64/phi.
  const std::size_t mask = strash_.size() - 1;
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  std::size_t slot = static_cast<std::size_t>(
      (key * 0x9e3779b97f4a7c15ull) >> (64 - std::countr_zero(strash_.size())));
  while (strash_[slot] != 0) {
    const Node& node = nodes_[strash_[slot]];
    if (node.fanin0 == a && node.fanin1 == b) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Aig::grow_strash() {
  strash_.assign(std::max<std::size_t>(16, strash_.size() * 2), 0);
  for (Var v = 1; v < nodes_.size(); ++v) {
    if (nodes_[v].type != NodeType::kAnd) continue;
    strash_[probe(nodes_[v].fanin0, nodes_[v].fanin1)] = v;
  }
}

Lit Aig::make_and(Lit a, Lit b) {
  EM_ASSERT(lit_var(a) < nodes_.size() && lit_var(b) < nodes_.size(),
            "make_and: fanin literal over dead variable " +
                std::to_string(std::max(lit_var(a), lit_var(b))));
  if (Lit folded = fold_and(a, b); folded != kLitNone) return folded;
  // Canonical operand order for strashing.
  if (a > b) std::swap(a, b);
  std::size_t slot = 0;
  if (!strash_.empty()) {
    slot = probe(a, b);
    if (strash_[slot] != 0) return make_lit(strash_[slot]);
  }
  // Keep the table at most half full after this insertion.
  if (2 * (static_cast<std::size_t>(num_ands_) + 1) > strash_.size()) {
    grow_strash();
    slot = probe(a, b);
  }
  Var v = static_cast<Var>(nodes_.size());
  strash_[slot] = v;
  nodes_.push_back(Node{NodeType::kAnd, a, b});
  ++num_ands_;
  return make_lit(v);
}

Lit Aig::find_and(Lit a, Lit b) const {
  if (Lit folded = fold_and(a, b); folded != kLitNone) return folded;
  if (a > b) std::swap(a, b);
  if (strash_.empty()) return kLitNone;
  Var hit = strash_[probe(a, b)];
  return hit != 0 ? make_lit(hit) : kLitNone;
}

Lit Aig::make_and_n(std::vector<Lit> lits) {
  if (lits.empty()) return kLitTrue;
  // Balanced reduction keeps depth logarithmic in the operand count.
  while (lits.size() > 1) {
    std::vector<Lit> next;
    next.reserve((lits.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < lits.size(); i += 2) {
      next.push_back(make_and(lits[i], lits[i + 1]));
    }
    if (lits.size() % 2 == 1) next.push_back(lits.back());
    lits = std::move(next);
  }
  return lits[0];
}

Lit Aig::make_or_n(std::vector<Lit> lits) {
  for (auto& l : lits) l = lit_not(l);
  return lit_not(make_and_n(std::move(lits)));
}

std::vector<std::uint32_t> Aig::levels() const {
  std::vector<std::uint32_t> level(nodes_.size(), 0);
  for (Var v = 1; v < nodes_.size(); ++v) {
    if (nodes_[v].type != NodeType::kAnd) continue;
    level[v] = 1 + std::max(level[lit_var(nodes_[v].fanin0)],
                            level[lit_var(nodes_[v].fanin1)]);
  }
  return level;
}

std::uint32_t Aig::num_levels() const {
  auto level = levels();
  std::uint32_t depth = 0;
  for (Lit po : pos_) depth = std::max(depth, level[lit_var(po)]);
  return depth;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
  std::vector<std::uint32_t> count(nodes_.size(), 0);
  for (Var v = 1; v < nodes_.size(); ++v) {
    if (nodes_[v].type != NodeType::kAnd) continue;
    ++count[lit_var(nodes_[v].fanin0)];
    ++count[lit_var(nodes_[v].fanin1)];
  }
  for (Lit po : pos_) ++count[lit_var(po)];
  return count;
}

void Aig::mark_cone(Var root, std::vector<std::uint8_t>& mark) const {
  std::vector<Var> stack{root};
  while (!stack.empty()) {
    Var v = stack.back();
    stack.pop_back();
    if (mark[v]) continue;
    mark[v] = 1;
    if (nodes_[v].type == NodeType::kAnd) {
      stack.push_back(lit_var(nodes_[v].fanin0));
      stack.push_back(lit_var(nodes_[v].fanin1));
    }
  }
}

std::vector<std::uint8_t> Aig::po_reachable() const {
  std::vector<std::uint8_t> mark(nodes_.size(), 0);
  for (Lit po : pos_) mark_cone(lit_var(po), mark);
  return mark;
}

Aig Aig::cleanup() const {
  Aig out = Aig::like(*this);
  // old variable -> new literal (identity on complementation handled below)
  std::vector<Lit> map(nodes_.size(), kLitFalse);
  map[0] = kLitFalse;
  for (std::uint32_t i = 0; i < pis_.size(); ++i) {
    map[pis_[i]] = make_lit(out.pis()[i]);
  }
  // Mark the cone of the POs.
  std::vector<bool> used(nodes_.size(), false);
  for (Lit po : pos_) used[lit_var(po)] = true;
  for (Var v = static_cast<Var>(nodes_.size()) - 1; v >= 1; --v) {
    if (!used[v] || nodes_[v].type != NodeType::kAnd) continue;
    used[lit_var(nodes_[v].fanin0)] = true;
    used[lit_var(nodes_[v].fanin1)] = true;
  }
  // Rebuild in topological order (re-strashes as it goes).
  for (Var v = 1; v < nodes_.size(); ++v) {
    if (!used[v] || nodes_[v].type != NodeType::kAnd) continue;
    Lit a = map[lit_var(nodes_[v].fanin0)];
    Lit b = map[lit_var(nodes_[v].fanin1)];
    a = lit_notcond(a, lit_is_compl(nodes_[v].fanin0));
    b = lit_notcond(b, lit_is_compl(nodes_[v].fanin1));
    map[v] = out.make_and(a, b);
  }
  for (std::uint32_t i = 0; i < pos_.size(); ++i) {
    Lit po = pos_[i];
    out.set_po(i, lit_notcond(map[lit_var(po)], lit_is_compl(po)));
  }
  EM_CHECK_EXPENSIVE(check::check_aig(out));
  return out;
}

Aig Aig::substitute(const std::vector<Lit>& replacement) const {
  EM_ASSERT(replacement.size() == nodes_.size(),
            "substitute: replacement map covers " +
                std::to_string(replacement.size()) + " of " +
                std::to_string(nodes_.size()) + " variables");
  Aig out = Aig::like(*this);
  // old variable -> literal in `out`, with replacements resolved. A forward
  // pass suffices: replacement literals point at smaller variables, whose
  // map entries are already final.
  std::vector<Lit> map(nodes_.size(), kLitFalse);
  map[0] = kLitFalse;
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v = 1; v < nodes_.size(); ++v) {
    if (replacement[v] != make_lit(v)) {
      EM_ASSERT(lit_var(replacement[v]) < v,
                "substitute: replacement for variable " + std::to_string(v) +
                    " aims at a larger variable (cycle)");
      map[v] = translate(replacement[v]);
      continue;
    }
    if (nodes_[v].type == NodeType::kPi) {
      map[v] = make_lit(out.pis()[nodes_[v].fanin0]);
    } else {
      map[v] = out.make_and(translate(nodes_[v].fanin0),
                            translate(nodes_[v].fanin1));
    }
  }
  for (std::uint32_t i = 0; i < pos_.size(); ++i) {
    out.set_po(i, translate(pos_[i]));
  }
  // The unconditional forward pass rebuilt nodes whose fanouts were all
  // redirected away; drop those dangling cones.
  return out.cleanup();
}

Aig Aig::like(const Aig& proto) {
  Aig out;
  for (std::uint32_t i = 0; i < proto.num_pis(); ++i) {
    out.add_pi(proto.pi_name(i));
  }
  for (std::uint32_t i = 0; i < proto.num_pos(); ++i) {
    out.add_po(kLitFalse, proto.po_name(i));
  }
  return out;
}

}  // namespace emorphic
