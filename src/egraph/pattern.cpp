#include "egraph/pattern.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "check/check.hpp"

namespace emorphic {

Pat Pat::v(const std::string& name) {
  auto node = std::make_shared<Node>();
  node->is_pattern_var = true;
  node->var_name = name;
  return Pat(std::move(node));
}

namespace {
Pat make_op(Op op, std::vector<Pat> children) {
  auto node = std::make_shared<Pat::Node>();
  node->op = op;
  node->children = std::move(children);
  return Pat(std::move(node));
}
}  // namespace

Pat Pat::c0() { return make_op(Op::kConst0, {}); }
Pat Pat::c1() { return make_op(Op::kConst1, {}); }
Pat Pat::not_(Pat a) { return make_op(Op::kNot, {std::move(a)}); }
Pat Pat::and_(Pat a, Pat b) { return make_op(Op::kAnd, {std::move(a), std::move(b)}); }
Pat Pat::or_(Pat a, Pat b) { return make_op(Op::kOr, {std::move(a), std::move(b)}); }
Pat Pat::xor_(Pat a, Pat b) { return make_op(Op::kXor, {std::move(a), std::move(b)}); }

Pattern Pattern::compile(const Pat& pat, std::vector<std::string>& var_names) {
  Pattern out;
  // Depth-first flattening; children are emitted before their parent.
  struct Rec {
    Pattern& out;
    std::vector<std::string>& var_names;
    std::int32_t operator()(const Pat& p) {
      const Pat::Node& n = p.node();
      Node flat;
      if (n.is_pattern_var) {
        flat.is_var = true;
        auto it = std::find(var_names.begin(), var_names.end(), n.var_name);
        if (it == var_names.end()) {
          if (var_names.size() == 64) {
            throw std::invalid_argument(
                "pattern has more than 64 variables");
          }
          flat.var = static_cast<std::uint32_t>(var_names.size());
          var_names.push_back(n.var_name);
        } else {
          flat.var = static_cast<std::uint32_t>(it - var_names.begin());
        }
        flat.var_mask = std::uint64_t{1} << flat.var;
      } else {
        flat.op = n.op;
        flat.structure = 1;
        for (std::size_t i = 0; i < n.children.size(); ++i) {
          flat.children[i] = (*this)(n.children[i]);
          const Node& child = out.nodes_[flat.children[i]];
          flat.structure =
              static_cast<std::uint16_t>(flat.structure + child.structure);
          flat.var_mask |= child.var_mask;
        }
      }
      out.nodes_.push_back(flat);
      return static_cast<std::int32_t>(out.nodes_.size() - 1);
    }
  };
  out.root_ = Rec{out, var_names}(pat);
  out.num_vars_ = static_cast<std::uint32_t>(var_names.size());
  for (std::int32_t i = 0; i < out.root_; ++i) {
    Node& n = out.nodes_[i];
    n.memoize = !n.is_var && n.structure >= 2;
  }
  return out;
}

std::string Pattern::to_string(const std::vector<std::string>& var_names) const {
  struct Rec {
    const Pattern& p;
    const std::vector<std::string>& names;
    std::string operator()(std::int32_t i) const {
      const Node& n = p.nodes()[i];
      if (n.is_var) return names[n.var];
      switch (op_arity(n.op)) {
        case 0:
          return op_name(n.op);
        case 1:
          return std::string(op_name(n.op)) + (*this)(n.children[0]);
        default: {
          std::string s = "(";
          s += (*this)(n.children[0]);
          s += ' ';
          s += op_name(n.op);
          s += ' ';
          s += (*this)(n.children[1]);
          s += ')';
          return s;
        }
      }
    }
  };
  return Rec{*this, var_names}(root_);
}

void OpPresence::build(const EGraph& egraph, const std::vector<EClassId>& ids) {
  counts_.assign(egraph.num_classes_created(), {});
  for (EClassId id : ids) {
    std::array<std::uint16_t, kNumOps>& counts = counts_[id];
    for (const ENode& n : egraph.eclass(id).nodes) {
      std::uint16_t& slot = counts[op_index(n.op)];
      if (slot != 0xffff) ++slot;
    }
  }
}

/// Backtracking e-matcher for one pattern. Matching proceeds through a
/// stack of pending (pattern node, class) obligations; a match is complete,
/// and goes to `out`, when every obligation is discharged.
class PatternMatcher {
 public:
  PatternMatcher(const EGraph& egraph, const Pattern& pattern,
                 std::vector<Subst>& out, std::size_t limit,
                 const OpPresence* presence, MatchMemo* memo)
      : egraph_(egraph),
        pattern_(pattern),
        out_(out),
        limit_(limit),
        presence_(presence),
        memo_(memo) {
    if (memo_ != nullptr) {
      EM_ASSERT(memo_->pattern_ == nullptr || memo_->pattern_ == &pattern_,
                "MatchMemo reused for a second pattern");
      memo_->pattern_ = &pattern_;
    }
  }

  /// Match the whole pattern against class `root`.
  void run(EClassId root) {
    Subst subst(pattern_.num_vars(), kNoEClass);
    match(pattern_.root(), root, subst);
  }

  std::size_t steps() const { return steps_; }

 private:
  bool full() const { return out_.size() >= limit_; }

  /// Try to match pattern node `pi` against class `cls` under `subst`,
  /// continuing with the pending obligations after every success. Explicit
  /// recursion with copy-on-emit substitutions: match counts are capped, so
  /// the copies stay cheap.
  void match(std::int32_t pi, EClassId cls, Subst& subst) {
    if (full()) return;
    ++steps_;
    cls = egraph_.find(cls);
    const Pattern::Node& pn = pattern_.nodes()[pi];
    // Feasibility pruning: bail before touching the class's node list when
    // it provably holds no e-node with the required operator. Applies at
    // every recursion depth, so a deep subtree fails at the first class that
    // cannot hold it instead of near the leaves.
    if (!pn.is_var && presence_ != nullptr &&
        !presence_->may_contain(cls, pn.op)) {
      return;
    }
    if (pn.is_var) {
      if (subst[pn.var] == kNoEClass) {
        subst[pn.var] = cls;
        descend(subst);
        subst[pn.var] = kNoEClass;
      } else if (subst[pn.var] == cls) {
        descend(subst);
      }
      return;
    }
    if (pn.memoize && memo_ != nullptr) {
      replay(pi, cls, subst);
      return;
    }
    search(pi, cls, subst);
  }

  /// Match operator node `pi` against each e-node of class `cls` (canonical).
  void search(std::int32_t pi, EClassId cls, Subst& subst) {
    const Pattern::Node& pn = pattern_.nodes()[pi];
    // Push-time feasibility: a (pattern child, class) obligation is doomed
    // when the class lacks the child's operator, or the child is a variable
    // already bound to a different class. (Bindings made by an ancestor stay
    // fixed for the whole subtree, so checking at push time is sound.)
    auto feasible = [&](std::int32_t p, EClassId m) {
      const Pattern::Node& child = pattern_.nodes()[p];
      if (child.is_var) {
        return subst[child.var] == kNoEClass || subst[child.var] == m;
      }
      return presence_ == nullptr || presence_->may_contain(m, child.op);
    };
    // Estimated branching factor of matching pattern child `p` against class
    // `m`: variables bind or filter without branching; operator children
    // branch once per matching e-node.
    auto fanout = [&](std::int32_t p, EClassId m) -> std::size_t {
      const Pattern::Node& child = pattern_.nodes()[p];
      if (child.is_var) return 0;
      if (presence_ != nullptr) return presence_->count(m, child.op);
      return egraph_.eclass(m).nodes.size();
    };

    for (const ENode& enode : egraph_.eclass(cls).nodes) {
      if (full()) return;
      if (enode.op != pn.op) continue;
      switch (op_arity(pn.op)) {
        case 0:
          descend(subst);
          break;
        case 1: {
          EClassId c0 = egraph_.find(enode.children[0]);
          if (!feasible(pn.children[0], c0)) break;
          frames_.push_back({pn.children[0], c0});
          descend(subst);
          frames_.pop_back();
          break;
        }
        case 2: {
          bool commutative = op_is_commutative(pn.op);
          EClassId c0 = egraph_.find(enode.children[0]);
          EClassId c1 = egraph_.find(enode.children[1]);
          std::int32_t p0 = pn.children[0];
          std::int32_t p1 = pn.children[1];
          auto explore = [&](EClassId m0, EClassId m1) {
            if (!feasible(p0, m0) || !feasible(p1, m1)) return;
            // Join ordering: explore the child with the smaller branching
            // factor first, so its bindings filter the expensive sibling.
            // Ties go to the more structured pattern child, which binds its
            // variables through structural constraints. The order depends
            // only on the pattern and the frozen e-graph state — never on
            // the bindings — so match emission order stays deterministic
            // and a memo entry replays in the order a search would emit.
            std::size_t w0 = fanout(p0, m0);
            std::size_t w1 = fanout(p1, m1);
            bool first0 = w0 != w1 ? w0 < w1
                                   : pattern_.nodes()[p0].structure >=
                                         pattern_.nodes()[p1].structure;
            // Frames pop LIFO: push the second obligation first.
            if (first0) {
              frames_.push_back({p1, m1});
              frames_.push_back({p0, m0});
            } else {
              frames_.push_back({p0, m0});
              frames_.push_back({p1, m1});
            }
            descend(subst);
            frames_.pop_back();
            frames_.pop_back();
          };
          explore(c0, c1);
          if (commutative && c0 != c1) explore(c1, c0);
          break;
        }
      }
    }
  }

  /// Visit memoized node `pi` at class `cls`: continue with every stored
  /// binding of its variables that agrees with `subst`, in stored order.
  void replay(std::int32_t pi, EClassId cls, Subst& subst) {
    const MatchMemo::Span span = entry(pi, cls);
    const std::uint64_t mask = pattern_.nodes()[pi].var_mask;
    const std::size_t width = static_cast<std::size_t>(std::popcount(mask));
    for (std::size_t r = 0; r < span.count; ++r) {
      if (full()) return;
      // Re-read per row: a continuation may fill more entries and grow rows_.
      const EClassId* row = memo_->rows_.data() + span.begin + r * width;
      std::uint64_t bound = 0;
      bool agrees = true;
      std::size_t j = 0;
      for (std::uint64_t m = mask; m != 0; m &= m - 1, ++j) {
        const int v = std::countr_zero(m);
        if (subst[v] == kNoEClass) {
          subst[v] = row[j];
          bound |= m & -m;
        } else if (subst[v] != row[j]) {
          agrees = false;
          break;
        }
      }
      if (agrees) descend(subst);
      for (std::uint64_t m = bound; m != 0; m &= m - 1) {
        subst[std::countr_zero(m)] = kNoEClass;
      }
    }
  }

  /// The memo entry of node `pi` at class `cls`. On first use a nested
  /// matcher searches the node with no variable bound, and the bindings of
  /// the node's variables in each of its matches become the entry's rows.
  MatchMemo::Span entry(std::int32_t pi, EClassId cls) {
    std::vector<std::vector<std::uint32_t>>& slots = memo_->slots_;
    if (slots.empty()) slots.resize(pattern_.nodes().size());
    if (slots[pi].empty()) slots[pi].assign(egraph_.num_classes_created(), 0);
    if (slots[pi][cls] != 0) return memo_->spans_[slots[pi][cls] - 1];

    std::vector<Subst> found;
    PatternMatcher nested(egraph_, pattern_, found,
                          std::numeric_limits<std::size_t>::max(), presence_,
                          memo_);
    Subst unbound(pattern_.num_vars(), kNoEClass);
    nested.search(pi, cls, unbound);
    steps_ += nested.steps_;
    const MatchMemo::Span span{memo_->rows_.size(), found.size()};
    const std::uint64_t mask = pattern_.nodes()[pi].var_mask;
    for (const Subst& s : found) {
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        memo_->rows_.push_back(s[std::countr_zero(m)]);
      }
    }
    memo_->spans_.push_back(span);
    slots[pi][cls] = static_cast<std::uint32_t>(memo_->spans_.size());
    return span;
  }

  // A pending (pattern node, class) obligation.
  struct Frame {
    std::int32_t pattern_node;
    EClassId cls;
  };

  void descend(Subst& subst) {
    if (frames_.empty()) {
      out_.push_back(subst);
      return;
    }
    Frame f = frames_.back();
    frames_.pop_back();
    match(f.pattern_node, f.cls, subst);
    frames_.push_back(f);
  }

  const EGraph& egraph_;
  const Pattern& pattern_;
  std::vector<Subst>& out_;
  std::size_t limit_;
  const OpPresence* presence_;
  MatchMemo* memo_;
  std::vector<Frame> frames_;
  std::size_t steps_ = 0;
};

void match_in_class(const EGraph& egraph, const Pattern& pattern, EClassId root,
                    std::vector<Subst>& out, std::size_t limit,
                    const OpPresence* presence, MatchMemo* memo,
                    std::size_t* steps) {
  [[maybe_unused]] const std::size_t before = out.size();
  PatternMatcher matcher(egraph, pattern, out, limit, presence, memo);
  matcher.run(root);
  if (steps != nullptr) *steps += matcher.steps();
  // The memo must be invisible: the same call without it emits the same
  // ordered list.
  EM_CHECK_EXPENSIVE([&]() -> std::string {
    if (memo == nullptr) return {};
    std::vector<Subst> plain(out.begin(), out.begin() + before);
    PatternMatcher(egraph, pattern, plain, limit, presence, nullptr).run(root);
    if (plain == out) return {};
    return "match_in_class: memoized matches differ from the plain search at "
           "class " + std::to_string(root) + " (" +
           std::to_string(out.size() - before) + " vs " +
           std::to_string(plain.size() - before) + ")";
  }());
}

EClassId instantiate(EGraph& egraph, const Pattern& pattern, const Subst& subst) {
  std::vector<EClassId> result(pattern.nodes().size(), kNoEClass);
  for (std::size_t i = 0; i < pattern.nodes().size(); ++i) {
    const Pattern::Node& n = pattern.nodes()[i];
    if (n.is_var) {
      assert(subst[n.var] != kNoEClass);
      result[i] = subst[n.var];
      continue;
    }
    ENode enode;
    enode.op = n.op;
    for (unsigned c = 0; c < op_arity(n.op); ++c) {
      enode.children[c] = result[n.children[c]];
    }
    result[i] = egraph.add(enode);
  }
  return result[pattern.root()];
}

Rewrite Rewrite::make(const std::string& name, const Pat& lhs, const Pat& rhs) {
  Rewrite rw;
  rw.name = name;
  rw.lhs = Pattern::compile(lhs, rw.var_names);
  rw.rhs = Pattern::compile(rhs, rw.var_names);
  return rw;
}

}  // namespace emorphic
