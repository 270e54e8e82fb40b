#include "opt/sop.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "check/check.hpp"

namespace emorphic {

unsigned Cube::num_lits() const {
  return static_cast<unsigned>(std::popcount(pos) + std::popcount(neg));
}

unsigned sop_num_lits(const Sop& sop) {
  unsigned total = 0;
  for (const Cube& c : sop) total += c.num_lits();
  return total;
}

Tt sop_to_tt(const Sop& sop, unsigned n) {
  Tt result = 0;
  for (const Cube& c : sop) {
    Tt cube_tt = tt_mask(n);
    for (unsigned i = 0; i < n; ++i) {
      if (c.pos & (1u << i)) cube_tt &= tt_var(i, n);
      if (c.neg & (1u << i)) cube_tt &= tt_not(tt_var(i, n), n);
    }
    result |= cube_tt;
  }
  return result & tt_mask(n);
}

std::string sop_to_string(const Sop& sop, unsigned n) {
  if (sop.empty()) return "0";
  std::string out;
  for (std::size_t k = 0; k < sop.size(); ++k) {
    if (k > 0) out += " + ";
    const Cube& c = sop[k];
    if (c.num_lits() == 0) {
      out += "1";
      continue;
    }
    for (unsigned i = 0; i < n; ++i) {
      if (c.pos & (1u << i)) out += static_cast<char>('a' + i);
      if (c.neg & (1u << i)) {
        out += static_cast<char>('a' + i);
        out += '\'';
      }
    }
  }
  return out;
}

namespace {

/// Minato-Morreale: an irredundant SOP S with L <= tt(S) <= U.
/// `n` is the number of remaining variables to consider (split on n-1).
Sop isop_rec(Tt lower, Tt upper, unsigned n, unsigned domain) {
  assert((lower & ~upper) == 0);
  if (lower == 0) return {};
  if (upper == tt_mask(domain)) return {Cube{}};  // the tautology cube

  // Find the highest variable either bound depends on.
  unsigned var = n;
  while (var > 0 && !tt_depends_on(lower, var - 1, domain) &&
         !tt_depends_on(upper, var - 1, domain)) {
    --var;
  }
  assert(var > 0 && "non-constant function must depend on something");
  unsigned x = var - 1;

  Tt l0 = tt_cofactor0(lower, x, domain), l1 = tt_cofactor1(lower, x, domain);
  Tt u0 = tt_cofactor0(upper, x, domain), u1 = tt_cofactor1(upper, x, domain);

  // Cubes that must contain x' / x.
  Sop s0 = isop_rec(l0 & ~u1 & tt_mask(domain), u0, x, domain);
  Sop s1 = isop_rec(l1 & ~u0 & tt_mask(domain), u1, x, domain);

  Tt t0 = sop_to_tt(s0, domain);
  Tt t1 = sop_to_tt(s1, domain);
  // What remains uncovered may be covered by cubes independent of x.
  Tt l_rest = ((l0 & ~t0) | (l1 & ~t1)) & tt_mask(domain);
  Sop s2 = isop_rec(l_rest, u0 & u1 & tt_mask(domain), x, domain);

  Sop result;
  result.reserve(s0.size() + s1.size() + s2.size());
  for (Cube c : s0) {
    c.neg |= static_cast<std::uint8_t>(1u << x);
    result.push_back(c);
  }
  for (Cube c : s1) {
    c.pos |= static_cast<std::uint8_t>(1u << x);
    result.push_back(c);
  }
  for (const Cube& c : s2) result.push_back(c);
  return result;
}

}  // namespace

Sop isop(Tt t, unsigned n) {
  t &= tt_mask(n);
  return isop_rec(t, t, n, n);
}

// ---------------------------------------------------------------------------
// Factoring
// ---------------------------------------------------------------------------

unsigned FactoredForm::num_lits() const {
  unsigned count = 0;
  for (const Node& node : nodes) {
    if (node.kind == Kind::kLiteral) ++count;
  }
  return count;
}

namespace {

std::uint32_t add_literal(FactoredForm& form, unsigned var, bool complemented) {
  FactoredForm::Node node;
  node.kind = FactoredForm::Kind::kLiteral;
  node.var = static_cast<std::uint8_t>(var);
  node.complemented = complemented;
  form.nodes.push_back(node);
  return static_cast<std::uint32_t>(form.nodes.size() - 1);
}

std::uint32_t add_gate(FactoredForm& form, FactoredForm::Kind kind,
                       std::vector<std::uint32_t> children) {
  if (children.size() == 1) return children[0];
  FactoredForm::Node node;
  node.kind = kind;
  node.children = std::move(children);
  form.nodes.push_back(node);
  return static_cast<std::uint32_t>(form.nodes.size() - 1);
}

std::uint32_t cube_to_form(FactoredForm& form, const Cube& cube) {
  std::vector<std::uint32_t> lits;
  for (unsigned i = 0; i < 6; ++i) {
    if (cube.pos & (1u << i)) lits.push_back(add_literal(form, i, false));
    if (cube.neg & (1u << i)) lits.push_back(add_literal(form, i, true));
  }
  assert(!lits.empty());
  return add_gate(form, FactoredForm::Kind::kAnd, std::move(lits));
}

std::uint32_t factor_rec(FactoredForm& form, const Sop& sop) {
  assert(!sop.empty());
  if (sop.size() == 1) return cube_to_form(form, sop[0]);

  // Most frequent literal across cubes.
  unsigned best_var = 0;
  bool best_neg = false;
  unsigned best_count = 0;
  for (unsigned i = 0; i < 6; ++i) {
    unsigned count_pos = 0, count_neg = 0;
    for (const Cube& c : sop) {
      if (c.pos & (1u << i)) ++count_pos;
      if (c.neg & (1u << i)) ++count_neg;
    }
    if (count_pos > best_count) {
      best_count = count_pos;
      best_var = i;
      best_neg = false;
    }
    if (count_neg > best_count) {
      best_count = count_neg;
      best_var = i;
      best_neg = true;
    }
  }

  if (best_count < 2) {
    // No common factor: a flat OR of cube ANDs.
    std::vector<std::uint32_t> terms;
    terms.reserve(sop.size());
    for (const Cube& c : sop) terms.push_back(cube_to_form(form, c));
    return add_gate(form, FactoredForm::Kind::kOr, std::move(terms));
  }

  std::uint8_t bit = static_cast<std::uint8_t>(1u << best_var);
  Sop quotient, remainder;
  for (Cube c : sop) {
    bool in = best_neg ? (c.neg & bit) != 0 : (c.pos & bit) != 0;
    if (in) {
      if (best_neg) {
        c.neg = static_cast<std::uint8_t>(c.neg & ~bit);
      } else {
        c.pos = static_cast<std::uint8_t>(c.pos & ~bit);
      }
      if (c.num_lits() == 0) {
        // The divisor literal alone is a cube: x + x*Q + R == x + R.
        // Treat as remainder containing the bare literal.
        Cube bare;
        if (best_neg) {
          bare.neg = bit;
        } else {
          bare.pos = bit;
        }
        remainder.push_back(bare);
        continue;
      }
      quotient.push_back(c);
    } else {
      remainder.push_back(c);
    }
  }

  std::uint32_t lit_node = add_literal(form, best_var, best_neg);
  std::uint32_t result;
  if (quotient.empty()) {
    result = lit_node;
  } else {
    std::uint32_t q = factor_rec(form, quotient);
    result = add_gate(form, FactoredForm::Kind::kAnd, {lit_node, q});
  }
  if (!remainder.empty()) {
    std::uint32_t r = factor_rec(form, remainder);
    result = add_gate(form, FactoredForm::Kind::kOr, {result, r});
  }
  return result;
}

}  // namespace

FactoredForm factor(const Sop& sop) {
  FactoredForm form;
  if (sop.empty()) {
    form.const_value = false;
    return form;
  }
  if (sop.size() == 1 && sop[0].num_lits() == 0) {
    form.const_value = true;
    return form;
  }
  form.root = factor_rec(form, sop);
  return form;
}

const FactoredForm& FactorMemo::get(Tt t, unsigned n) {
  assert(n < forms_.size());
  t &= tt_mask(n);
  auto [it, inserted] = forms_[n].try_emplace(t);
  if (inserted) {
    it->second = factor(isop(t, n));
    return it->second;
  }
  // A hit must be exactly what the uncached path computes.
  EM_CHECK_EXPENSIVE(factor(isop(t, n)) == it->second
                         ? std::string()
                         : "FactorMemo: cached form of " + tt_to_string(t, n) +
                               " differs from factor(isop(t, " +
                               std::to_string(n) + "))");
  return it->second;
}

std::size_t FactorMemo::size() const {
  std::size_t total = 0;
  for (std::size_t n = 0; n < forms_.size(); ++n) total += forms_[n].size();
  return total;
}

Lit build_factored(Aig& aig, const FactoredForm& form,
                   const std::vector<Lit>& leaves,
                   const std::vector<double>& arrival) {
  if (form.nodes.empty()) return form.const_value ? kLitTrue : kLitFalse;
  assert(arrival.size() == leaves.size());

  struct Built {
    Lit lit;
    double arrival;
  };
  std::vector<Built> built(form.nodes.size());

  // Nodes were appended children-first by construction, so index order is
  // a valid topological order.
  for (std::uint32_t i = 0; i < form.nodes.size(); ++i) {
    const FactoredForm::Node& node = form.nodes[i];
    if (node.kind == FactoredForm::Kind::kLiteral) {
      Lit leaf = leaves[node.var];
      built[i] = {lit_notcond(leaf, node.complemented), arrival[node.var]};
      continue;
    }
    // Arrival-aware balanced reduction: combine earliest-arriving first.
    std::vector<Built> operands;
    operands.reserve(node.children.size());
    for (std::uint32_t c : node.children) operands.push_back(built[c]);
    std::sort(operands.begin(), operands.end(),
              [](const Built& a, const Built& b) { return a.arrival > b.arrival; });
    bool is_and = node.kind == FactoredForm::Kind::kAnd;
    while (operands.size() > 1) {
      Built x = operands.back();
      operands.pop_back();
      Built y = operands.back();
      operands.pop_back();
      Built z;
      z.lit = is_and ? aig.make_and(x.lit, y.lit) : aig.make_or(x.lit, y.lit);
      z.arrival = std::max(x.arrival, y.arrival) + 1.0;
      auto it = std::lower_bound(
          operands.begin(), operands.end(), z,
          [](const Built& a, const Built& b) { return a.arrival > b.arrival; });
      operands.insert(it, z);
    }
    built[i] = operands[0];
  }
  return built[form.root].lit;
}

Lit build_sop(Aig& aig, Tt t, unsigned n, const std::vector<Lit>& leaves) {
  Sop sop = isop(t, n);
  FactoredForm form = factor(sop);
  std::vector<double> arrival(leaves.size(), 0.0);
  return build_factored(aig, form, leaves, arrival);
}

}  // namespace emorphic
