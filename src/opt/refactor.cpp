#include "opt/refactor.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "aig/cut.hpp"
#include "opt/sop.hpp"

namespace emorphic {

namespace {

/// Number of AND nodes in the cone of `v` above the cut leaves that would
/// actually disappear if `v` were re-expressed: the root plus interior
/// nodes used *only* inside this cone (fanout 1). Shared interior nodes
/// survive for their other users, so counting them would overestimate the
/// benefit and cause net growth. A walk marks its nodes with its own stamp,
/// so it costs O(cone): nothing AIG-sized is cleared between walks.
class ConeCounter {
 public:
  ConeCounter(const Aig& aig, const std::vector<std::uint32_t>& fanout)
      : aig_(aig), fanout_(fanout), stamp_(aig.num_nodes(), 0) {}

  unsigned exclusive_cone_size(Var v, const Cut& cut) {
    if (++walk_ == 0) {  // the stamps wrapped: forget every old mark
      std::fill(stamp_.begin(), stamp_.end(), 0);
      walk_ = 1;
    }
    auto is_leaf = [&](Var u) {
      for (unsigned i = 0; i < cut.size; ++i) {
        if (cut.leaves[i] == u) return true;
      }
      return false;
    };
    unsigned count = 0;
    stack_.assign(1, v);
    while (!stack_.empty()) {
      Var u = stack_.back();
      stack_.pop_back();
      if (stamp_[u] == walk_ || !aig_.is_and(u) || (u != v && is_leaf(u))) {
        continue;
      }
      if (u != v && fanout_[u] > 1) continue;  // shared: survives anyway
      stamp_[u] = walk_;
      ++count;
      stack_.push_back(lit_var(aig_.fanin0(u)));
      stack_.push_back(lit_var(aig_.fanin1(u)));
    }
    return count;
  }

 private:
  const Aig& aig_;
  const std::vector<std::uint32_t>& fanout_;
  std::vector<std::uint32_t> stamp_;  // walk_ marks the current walk's nodes
  std::uint32_t walk_ = 0;
  std::vector<Var> stack_;
};

/// Estimated AND-node count of a factored form: each m-ary gate costs m-1.
unsigned factored_cost(const FactoredForm& form) {
  unsigned cost = 0;
  for (const auto& node : form.nodes) {
    if (node.kind != FactoredForm::Kind::kLiteral) {
      cost += static_cast<unsigned>(node.children.size()) - 1;
    }
  }
  return cost;
}

struct Plan {
  bool refactored = false;
  Cut cut;
  const FactoredForm* form = nullptr;  // owned by the call's FactorMemo
  bool output_compl = false;  // the factored form implements the complement
};

}  // namespace

Aig refactor(const Aig& aig, const RefactorParams& params) {
  CutParams cut_params;
  cut_params.cut_size = params.cut_size;
  cut_params.num_cuts = params.num_cuts;
  CutManager cuts(aig, cut_params);
  auto fanout = aig.fanout_counts();
  ConeCounter cones(aig, fanout);
  FactorMemo memo;

  // Decide, per node, whether a factored replacement is worthwhile. Shared
  // interior nodes still get built on demand, so the benefit estimate
  // compares against the exclusive cone only (fanout-1 interior nodes).
  std::vector<Plan> plans(aig.num_nodes());
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    const auto& node_cuts = cuts.cuts(v);
    // Larger cuts first: they swallow more of the cone and give the
    // factoring more room (priority cuts are sorted small-to-large).
    for (auto it = node_cuts.rbegin(); it != node_cuts.rend(); ++it) {
      const Cut& cut = *it;
      if (cut.is_trivial(v) || cut.size < params.min_cut_size) continue;
      unsigned cone = cones.exclusive_cone_size(v, cut);
      if (cone < 2) continue;

      // Factor the cheaper polarity; a complemented output is free in AIGs.
      const FactoredForm& form_pos = memo.get(cut.tt, cut.size);
      const FactoredForm& form_neg =
          memo.get(tt_not(cut.tt, cut.size), cut.size);
      bool use_neg = factored_cost(form_neg) < factored_cost(form_pos);
      const FactoredForm& form = use_neg ? form_neg : form_pos;

      if (factored_cost(form) < cone) {
        plans[v].refactored = true;
        plans[v].cut = cut;
        plans[v].form = &form;
        plans[v].output_compl = use_neg;
        break;  // first profitable cut wins
      }
    }
  }

  // Lazy rebuild from the POs: nodes are only constructed when referenced,
  // so cones swallowed by a factored replacement cost nothing.
  Aig out = Aig::like(aig);
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  std::vector<bool> built(aig.num_nodes(), false);
  built[0] = true;
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pis()[i]] = make_lit(out.pis()[i]);
    built[aig.pis()[i]] = true;
  }

  // Iterative DFS (explicit stack) to avoid recursion depth limits.
  auto build = [&](Var root) {
    if (built[root]) return;
    std::vector<Var> stack{root};
    while (!stack.empty()) {
      Var v = stack.back();
      if (built[v]) {
        stack.pop_back();
        continue;
      }
      const Plan& plan = plans[v];
      bool pending = false;
      if (plan.refactored) {
        for (unsigned i = 0; i < plan.cut.size; ++i) {
          if (!built[plan.cut.leaves[i]]) {
            stack.push_back(plan.cut.leaves[i]);
            pending = true;
          }
        }
      } else {
        for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
          if (!built[lit_var(f)]) {
            stack.push_back(lit_var(f));
            pending = true;
          }
        }
      }
      if (pending) continue;

      if (plan.refactored) {
        std::vector<Lit> leaves(plan.cut.size);
        std::vector<double> arrivals(plan.cut.size, 0.0);
        for (unsigned i = 0; i < plan.cut.size; ++i) {
          leaves[i] = map[plan.cut.leaves[i]];
        }
        Lit lit = build_factored(out, *plan.form, leaves, arrivals);
        map[v] = lit_notcond(lit, plan.output_compl);
      } else {
        Lit a = lit_notcond(map[lit_var(aig.fanin0(v))],
                            lit_is_compl(aig.fanin0(v)));
        Lit b = lit_notcond(map[lit_var(aig.fanin1(v))],
                            lit_is_compl(aig.fanin1(v)));
        map[v] = out.make_and(a, b);
      }
      built[v] = true;
      stack.pop_back();
    }
  };

  for (Lit po : aig.pos()) build(lit_var(po));
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    out.set_po(i, lit_notcond(map[lit_var(po)], lit_is_compl(po)));
  }
  Aig cleaned = out.cleanup();
  // Refactoring is greedy; only keep the result when it actually helped.
  return cleaned.num_ands() <= aig.num_ands() ? cleaned : aig;
}

}  // namespace emorphic
