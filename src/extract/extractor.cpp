#include "extract/extractor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "check/check.hpp"

namespace emorphic {

namespace {

// NOT lowers to a complemented edge (free in an AIG), but a strictly
// positive cost is required so that cost strictly decreases along chosen
// child edges — that is what guarantees extracted solutions are acyclic.
constexpr double kEpsilonCost = 1.0 / 1024.0;

constexpr std::uint32_t kNoDense = 0xffffffffu;

double node_op_cost(const CostModel& cost, Op op) {
  double c = cost.op_cost(op);
  return c > 0.0 ? c : kEpsilonCost;
}

using Node = ExtractView::Node;

/// DFS states of walk_chosen. kUnseen is zero and kDone nonzero, so after
/// a complete walk `state` marks exactly the classes of the cone.
enum : std::uint8_t { kUnseen, kOpen, kDone };

/// Upper bound on walk_chosen's stack: the roots, plus at most two children
/// pushed per class (a class pushes its children when it is opened, and is
/// opened once). Reserving it keeps a warm scratch allocation-free.
std::size_t dfs_bound(const ExtractView& view,
                      const std::vector<SerializedRoot>& roots) {
  return roots.size() + 2 * static_cast<std::size_t>(view.num_classes());
}

/// How walk_chosen ended.
enum class Walk { kOk, kUncovered, kCycle };

/// The one walk over the cone `solution` chooses below `roots`: an
/// iterative post-order DFS that pushes children 0..arity-1 and calls
/// `visit(d, node)` once per class, after all of its children. It stops at
/// the first class in the cone without a choice (kUncovered), or at a
/// chosen edge into a class still open (kCycle: open classes are always
/// ancestors of the stack top). After kOk, scratch.state is nonzero on
/// exactly the classes visited.
template <typename Visit>
Walk walk_chosen(const ExtractView& view, const Extraction& solution,
                 const std::vector<SerializedRoot>& roots,
                 ExtractScratch& scratch, Visit&& visit) {
  std::vector<std::uint8_t>& state = scratch.state;
  std::vector<std::uint32_t>& stack = scratch.stack;
  state.assign(view.num_classes(), kUnseen);
  stack.clear();
  stack.reserve(dfs_bound(view, roots));
  for (const SerializedRoot& r : roots) stack.push_back(view.dense(r.id));
  while (!stack.empty()) {
    const std::uint32_t d = stack.back();
    if (state[d] == kDone) {
      stack.pop_back();
      continue;
    }
    if (state[d] == kUnseen) {
      if (!solution.has(view.slot(d))) return Walk::kUncovered;
      state[d] = kOpen;
      const Node& v = view.chosen(solution, d);
      bool pending = false;
      for (unsigned k = 0; k < op_arity(v.op); ++k) {
        const std::uint8_t child = state[v.child[k]];
        if (child == kOpen) return Walk::kCycle;
        if (child == kUnseen) {
          stack.push_back(v.child[k]);
          pending = true;
        }
      }
      if (pending) continue;
    }
    // Every child is done: finish the class.
    visit(d, view.chosen(solution, d));
    state[d] = kDone;
    stack.pop_back();
  }
  return Walk::kOk;
}

/// Algorithm 1 over a view. `free_classes` (per dense class, may be null)
/// marks classes whose cost contribution is discounted to zero because the
/// incumbent already pays for them — the marginal-cost trick behind
/// dag_refine(). It may make selections cyclic; callers must validate.
Extraction relax(const ExtractView& view, const BottomUpOptions& options,
                 ExtractScratch& s, const std::uint8_t* free_classes) {
  assert(options.cost != nullptr);
  assert(options.p_random == 0.0 || options.rng != nullptr);
  const CostModel& cost = *options.cost;
  const std::uint32_t n = view.num_classes();
  const std::size_t slots = view.num_slots();

  s.classes.assign(n, ExtractScratch::ClassCost{kInfCost, 0});
  Extraction solution(slots);
  if (options.warm_start != nullptr) {
    for (EClassId c = 0; c < options.warm_start->size() && c < slots; ++c) {
      if (options.warm_start->has(c)) {
        solution.choose(c, options.warm_start->choice(c));
      }
    }
  }

  double op_cost[kNumOps];
  for (std::size_t op = 0; op < kNumOps; ++op) {
    op_cost[op] = node_op_cost(cost, static_cast<Op>(op));
  }
  const bool sum = cost.kind == CostKind::kSize;
  auto child_cost = [&](std::uint32_t child) {
    double c = s.classes[child].cost;
    if (c == kInfCost) return kInfCost;
    if (free_classes != nullptr && free_classes[child]) return 0.0;
    return c;
  };
  auto child_costs = [&](const Node& v, double* c0, double* c1) {
    const unsigned arity = op_arity(v.op);
    *c0 = arity >= 1 ? child_cost(v.child[0]) : kInfCost;
    *c1 = arity >= 2 ? child_cost(v.child[1]) : kInfCost;
  };
  auto eval_node = [&](const Node& v, double c0, double c1) -> double {
    const double base = op_cost[op_index(v.op)];
    const unsigned arity = op_arity(v.op);
    if (arity == 0) return base;
    if (c0 == kInfCost) return kInfCost;
    if (arity == 1) return base + c0;
    if (c1 == kInfCost) return kInfCost;
    return sum ? base + c0 + c1 : base + std::max(c0, c1);
  };

  // Logical clock of the pruned pass's memo: advanced by every change of a
  // class's cost as its parents see it.
  std::uint64_t clock = 1;

  // Algorithm 1's per-e-node update rule (line 15): always adopt the first
  // finite cost; adopt an improvement unless the random skip fires.
  auto try_update = [&](std::uint32_t d, std::uint32_t node_index,
                        double new_cost) {
    double prev = s.classes[d].cost;
    if (new_cost >= prev) return false;
    if (prev != kInfCost && options.p_random > 0.0 &&
        options.rng->next_double() < options.p_random) {
      return false;  // exploration: deliberately keep the inferior choice
    }
    solution.choose(view.slot(d), node_index);
    s.classes[d].cost = new_cost;
    // Stamp the change parents see: a free class's contribution only moves
    // from unreachable to zero.
    if (free_classes == nullptr || !free_classes[d] || prev == kInfCost) {
      s.classes[d].changed = clock++;
    }
    return true;
  };

  ExtractStats counts;
  // Safety valve: on cyclic e-graphs the min-plus relaxation converges, but
  // sum costs over heavily shared structure can cascade for a very long
  // time. Stopping early is sound — every choice made so far is
  // well-founded — it merely leaves some classes at a dearer (still valid)
  // selection.
  const std::size_t max_passes = 1024;
  std::size_t relaxation_budget = 256 * static_cast<std::size_t>(n) + 4096;

  if (!options.prune) {
    // Baseline extraction (Fig. 6, "Original Search Space"): full sweeps over
    // every e-node until a fixpoint.
    bool changed = true;
    std::size_t sweeps = 0;
    while (changed && sweeps++ < max_passes) {
      changed = false;
      ++counts.passes;
      for (std::uint32_t d = 0; d < n; ++d) {
        const std::uint32_t begin = view.node_begin(d);
        const std::uint32_t end = view.node_begin(d + 1);
        for (std::uint32_t i = begin; i < end; ++i) {
          const Node& v = view.node(i);
          double c0, c1;
          child_costs(v, &c0, &c1);
          double value = eval_node(v, c0, c1);
          ++counts.enodes_visited;
          if (value == kInfCost) continue;
          if (try_update(d, i - begin, value)) changed = true;
        }
      }
    }
  } else {
    // Pruned extraction ("Reduced Search Space"): a worklist seeded with the
    // leaf classes; per-e-node memoization skips any node whose children's
    // costs are unchanged since its last evaluation.
    //
    // The memo compares clocks instead of costs: a class's cost only ever
    // decreases, so "the children's costs equal those of the last
    // evaluation" is "no child changed since that evaluation". memo[i] is
    // the clock of node i's last finite evaluation (0: evaluate), and
    // changed[c] the clock of class c's last change.
    s.memo.assign(view.num_nodes(), 0);
    s.queued.assign(n, 0);
    if (s.queue.size() < n) s.queue.resize(n);
    // FIFO keeps propagation breadth-first (roughly topological), which
    // avoids the exponential recomputation cascades a LIFO order can cause
    // on reconvergent graphs. A class is queued at most once, so a ring of
    // n slots holds the whole queue.
    std::size_t head = 0;
    std::size_t count = 0;
    auto push = [&](std::uint32_t d) {
      std::size_t tail = head + count;
      if (tail >= n) tail -= n;
      s.queue[tail] = d;
      s.queued[d] = 1;
      ++count;
    };
    for (std::uint32_t d : view.leaves()) push(d);

    while (count > 0 && relaxation_budget-- > 0) {
      const std::uint32_t d = s.queue[head];
      if (++head == n) head = 0;
      --count;
      s.queued[d] = 0;
      ++counts.passes;

      const std::uint32_t begin = view.node_begin(d);
      const std::uint32_t end = view.node_begin(d + 1);
      bool improved = false;
      for (std::uint32_t i = begin; i < end; ++i) {
        const Node& v = view.node(i);
        const std::uint64_t stamp = s.memo[i];
        const unsigned arity = op_arity(v.op);
        if (stamp != 0 && (arity < 1 || s.classes[v.child[0]].changed < stamp) &&
            (arity < 2 || s.classes[v.child[1]].changed < stamp)) {
          // Children unchanged: this node cannot have gotten cheaper.
          ++counts.enodes_skipped;
          continue;
        }
        double c0, c1;
        child_costs(v, &c0, &c1);
        double value = eval_node(v, c0, c1);
        ++counts.enodes_visited;
        if (value == kInfCost) {
          s.memo[i] = 0;
          continue;
        }
        s.memo[i] = clock;
        if (try_update(d, i - begin, value)) improved = true;
      }
      if (improved) {
        // Line 18: extend the traversal queue with the parents of this class.
        for (const std::uint32_t* p = view.parents_begin(d);
             p != view.parents_end(d); ++p) {
          if (!s.queued[*p]) push(*p);
        }
      }
    }
  }

  if (options.stats != nullptr) {
    options.stats->enodes_visited += counts.enodes_visited;
    options.stats->enodes_skipped += counts.enodes_skipped;
    options.stats->passes += counts.passes;
  }
  return solution;
}

}  // namespace

ExtractView::ExtractView(const EGraph& egraph) {
  const std::size_t slots = egraph.num_classes_created();
  slot_ = egraph.class_ids();
  const std::uint32_t n = num_classes();
  dense_.assign(slots, kNoDense);
  for (std::uint32_t d = 0; d < n; ++d) dense_[slot_[d]] = d;
  for (EClassId id = 0; id < slots; ++id) dense_[id] = dense_[egraph.find(id)];

  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  for (EClassId id : slot_) {
    EClass cls = egraph.eclass(id);
    total_nodes += cls.nodes.size();
    total_edges += cls.parents.size();
  }
  node_begin_.reserve(n + 1);
  nodes_.reserve(total_nodes);
  parent_begin_.reserve(n + 1);
  parents_.reserve(total_edges);
  std::vector<std::uint32_t> listed_for(n, kNoDense);  // parent -> child class
  for (std::uint32_t d = 0; d < n; ++d) {
    EClass cls = egraph.eclass(slot_[d]);
    node_begin_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    bool leaf = false;
    for (const ENode& en : cls.nodes) {
      Node v{{kNoEClass, kNoEClass}, en.op};
      if (en.op == Op::kVar) v.child[0] = en.symbol;
      for (unsigned k = 0; k < en.arity(); ++k) {
        v.child[k] = dense_[en.children[k]];
      }
      leaf = leaf || en.arity() == 0;
      nodes_.push_back(v);
    }
    if (leaf) leaves_.push_back(d);

    parent_begin_.push_back(static_cast<std::uint32_t>(parents_.size()));
    for (const ParentEdge& edge : cls.parents) {
      const std::uint32_t p = dense_[edge.cls];
      if (listed_for[p] == d) continue;  // already listed for this class
      listed_for[p] = d;
      parents_.push_back(p);
    }
  }
  node_begin_.push_back(static_cast<std::uint32_t>(nodes_.size()));
  parent_begin_.push_back(static_cast<std::uint32_t>(parents_.size()));
  EM_CHECK_EXPENSIVE(check(egraph));
}

std::string ExtractView::check(const EGraph& egraph) const {
  if (slot_ != egraph.class_ids()) return "ExtractView: class list differs";
  if (dense_.size() != egraph.num_classes_created()) {
    return "ExtractView: slot count differs";
  }
  const std::uint32_t n = num_classes();
  for (EClassId id = 0; id < dense_.size(); ++id) {
    if (dense_[id] >= n || slot_[dense_[id]] != egraph.find(id)) {
      return "ExtractView: class " + std::to_string(id) +
             " maps to the wrong dense id";
    }
  }
  if (node_begin_.size() != n + 1 || parent_begin_.size() != n + 1) {
    return "ExtractView: CSR offsets have the wrong length";
  }
  std::vector<std::uint32_t> want_parents;
  std::vector<std::uint32_t> want_leaves;
  std::vector<std::uint32_t> listed_for(n, kNoDense);
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::string where = "ExtractView: class " + std::to_string(slot_[d]);
    EClass cls = egraph.eclass(slot_[d]);
    if (node_begin_[d + 1] - node_begin_[d] != cls.nodes.size()) {
      return where + " has the wrong node count";
    }
    bool leaf = false;
    for (std::uint32_t i = 0; i < cls.nodes.size(); ++i) {
      const ENode& en = cls.nodes[i];
      const Node& v = nodes_[node_begin_[d] + i];
      if (v.op != en.op) return where + " node " + std::to_string(i) + ": op";
      if (en.op == Op::kVar && v.symbol() != en.symbol) {
        return where + " node " + std::to_string(i) + ": symbol";
      }
      for (unsigned k = 0; k < en.arity(); ++k) {
        if (v.child[k] >= n || slot_[v.child[k]] != egraph.find(en.children[k])) {
          return where + " node " + std::to_string(i) + ": child " +
                 std::to_string(k);
        }
      }
      leaf = leaf || en.arity() == 0;
    }
    if (leaf) want_leaves.push_back(d);
    want_parents.clear();
    for (const ParentEdge& edge : cls.parents) {
      const std::uint32_t p = dense_[egraph.find(edge.cls)];
      if (listed_for[p] != d) want_parents.push_back(p);
      listed_for[p] = d;
    }
    if (!std::equal(want_parents.begin(), want_parents.end(), parents_begin(d),
                    parents_end(d))) {
      return where + " has the wrong parent list";
    }
  }
  if (want_leaves != leaves_) return "ExtractView: leaf seed differs";
  return "";
}

Extraction bottom_up_extract(const ExtractView& view,
                             const BottomUpOptions& options,
                             ExtractScratch& scratch,
                             std::vector<double>* out_costs) {
  Extraction solution = relax(view, options, scratch, nullptr);
  if (out_costs != nullptr) {
    out_costs->assign(view.num_slots(), kInfCost);
    for (std::uint32_t d = 0; d < view.num_classes(); ++d) {
      (*out_costs)[view.slot(d)] = scratch.classes[d].cost;
    }
  }
  return solution;
}

Extraction bottom_up_extract(const EGraph& egraph, const BottomUpOptions& options,
                             std::vector<double>* out_costs) {
  ExtractScratch scratch;
  return bottom_up_extract(ExtractView(egraph), options, scratch, out_costs);
}

Extraction greedy_extract(const ExtractView& view, const CostModel& cost,
                          ExtractScratch& scratch, ExtractStats* stats,
                          bool prune) {
  BottomUpOptions options;
  options.cost = &cost;
  options.prune = prune;
  options.stats = stats;
  return relax(view, options, scratch, nullptr);
}

Extraction greedy_extract(const EGraph& egraph, const CostModel& cost,
                          ExtractStats* stats, bool prune) {
  ExtractScratch scratch;
  return greedy_extract(ExtractView(egraph), cost, scratch, stats, prune);
}

Extraction dag_refine(const ExtractView& view, Extraction base,
                      const CostModel& cost,
                      const std::vector<SerializedRoot>& roots,
                      ExtractScratch& scratch, unsigned passes) {
  Extraction best = std::move(base);
  // True DAG cost arbitrates: size semantics count every class once.
  const CostModel dag_cost{CostKind::kSize};
  double best_value = solution_cost(view, best, dag_cost, roots, scratch);
  if (best_value == kInfCost) return best;  // not well-founded

  for (unsigned pass = 0; pass < passes; ++pass) {
    // The incumbent's cost walk left the classes it uses below the roots
    // marked in scratch.state: those are free.
    BottomUpOptions options;
    options.cost = &cost;
    Extraction candidate = relax(view, options, scratch, scratch.state.data());
    // Zero-cost contributions void the acyclicity guarantee: a cyclic
    // candidate costs kInfCost, and only strict improvements of the true
    // DAG cost are adopted (which leaves the new incumbent's walk marked).
    double value = solution_cost(view, candidate, dag_cost, roots, scratch);
    if (value >= best_value) break;
    best = std::move(candidate);
    best_value = value;
  }
  return best;
}

Extraction dag_refine(const EGraph& egraph, const Extraction& base,
                      const CostModel& cost,
                      const std::vector<SerializedRoot>& roots,
                      unsigned passes) {
  ExtractScratch scratch;
  return dag_refine(ExtractView(egraph), base, cost, roots, scratch, passes);
}

Extraction random_extract(const ExtractView& view, Rng& rng) {
  // Well-founded random choice: decide each class by picking uniformly at
  // random among its e-nodes whose children are already decided.
  // Kahn-style worklist (O(edges)): when a class is decided, parent e-nodes
  // lose one pending child; nodes reaching zero make their class decidable.
  const std::uint32_t n = view.num_classes();
  Extraction solution(view.num_slots());
  std::vector<std::uint8_t> decided(n, 0);

  struct NodeRef {
    std::uint32_t cls;   // dense class of the user node
    std::uint32_t node;  // flat index of the user node
  };
  // pending[i]: undecided-children count of flat node i. users: per child
  // class, its user nodes in (class, node, child) order (CSR).
  std::vector<std::uint32_t> pending(view.num_nodes(), 0);
  std::vector<std::uint32_t> user_begin(n + 1, 0);
  for (std::uint32_t i = 0; i < view.num_nodes(); ++i) {
    const Node& v = view.node(i);
    pending[i] = op_arity(v.op);
    for (unsigned k = 0; k < op_arity(v.op); ++k) ++user_begin[v.child[k] + 1];
  }
  for (std::uint32_t d = 0; d < n; ++d) user_begin[d + 1] += user_begin[d];
  std::vector<NodeRef> users(user_begin[n]);
  std::vector<std::uint32_t> fill(user_begin.begin(), user_begin.end() - 1);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t d = 0; d < n; ++d) {
    bool has_ready = false;
    for (std::uint32_t i = view.node_begin(d); i < view.node_begin(d + 1); ++i) {
      const Node& v = view.node(i);
      for (unsigned k = 0; k < op_arity(v.op); ++k) {
        users[fill[v.child[k]]++] = NodeRef{d, i};
      }
      if (pending[i] == 0) has_ready = true;
    }
    if (has_ready) queue.push_back(d);
  }

  std::vector<std::uint32_t> ready;
  while (!queue.empty()) {
    // Pop a random queue element so tie-breaking order is also randomized.
    std::size_t pick = rng.next_below(queue.size());
    const std::uint32_t d = queue[pick];
    queue[pick] = queue.back();
    queue.pop_back();
    if (decided[d]) continue;
    ready.clear();
    const std::uint32_t begin = view.node_begin(d);
    for (std::uint32_t i = begin; i < view.node_begin(d + 1); ++i) {
      if (pending[i] == 0) ready.push_back(i - begin);
    }
    if (ready.empty()) continue;  // stale queue entry
    solution.choose(view.slot(d), ready[rng.next_below(ready.size())]);
    decided[d] = 1;
    for (std::uint32_t u = user_begin[d]; u < user_begin[d + 1]; ++u) {
      const NodeRef& ref = users[u];
      if (decided[ref.cls]) continue;
      if (--pending[ref.node] == 0) queue.push_back(ref.cls);
    }
  }
  return solution;
}

Extraction random_extract(const EGraph& egraph, Rng& rng) {
  return random_extract(ExtractView(egraph), rng);
}

bool solution_is_well_founded(const ExtractView& view,
                              const Extraction& solution,
                              const std::vector<SerializedRoot>& roots,
                              ExtractScratch& scratch) {
  return walk_chosen(view, solution, roots, scratch,
                     [](std::uint32_t, const Node&) {}) == Walk::kOk;
}

bool solution_is_well_founded(const EGraph& egraph, const Extraction& solution,
                              const std::vector<SerializedRoot>& roots) {
  ExtractScratch scratch;
  return solution_is_well_founded(ExtractView(egraph), solution, roots, scratch);
}

double solution_cost(const ExtractView& view, const Extraction& solution,
                     const CostModel& cost,
                     const std::vector<SerializedRoot>& roots,
                     ExtractScratch& scratch) {
  // Size counts each class once (DAG cost); depth is the longest path.
  std::vector<double>& depth = scratch.depth;
  depth.assign(view.num_classes(), 0.0);
  double total_size = 0.0;
  auto fold = [&](std::uint32_t d, const Node& v) {
    const double node_cost = cost.op_cost(v.op);
    double child_depth = 0.0;
    for (unsigned k = 0; k < op_arity(v.op); ++k) {
      child_depth = std::max(child_depth, depth[v.child[k]]);
    }
    depth[d] = node_cost + child_depth;
    total_size += node_cost;
  };
  if (walk_chosen(view, solution, roots, scratch, fold) != Walk::kOk) {
    return kInfCost;
  }

  if (cost.kind == CostKind::kSize) return total_size;
  double max_depth = 0.0;
  for (const SerializedRoot& r : roots) {
    max_depth = std::max(max_depth, depth[view.dense(r.id)]);
  }
  return max_depth;
}

double solution_cost(const EGraph& egraph, const Extraction& solution,
                     const CostModel& cost,
                     const std::vector<SerializedRoot>& roots) {
  ExtractScratch scratch;
  return solution_cost(ExtractView(egraph), solution, cost, roots, scratch);
}

Lit lower_enode(Aig& aig, const ExtractView::Node& v,
                const std::vector<Lit>& lits) {
  switch (v.op) {
    case Op::kConst0:
      return kLitFalse;
    case Op::kConst1:
      return kLitTrue;
    case Op::kVar:
      return make_lit(aig.pis()[v.symbol()]);
    case Op::kNot:
      return lit_not(lits[v.child[0]]);
    case Op::kAnd:
      return aig.make_and(lits[v.child[0]], lits[v.child[1]]);
    case Op::kOr:
      return aig.make_or(lits[v.child[0]], lits[v.child[1]]);
    case Op::kXor:
      return aig.make_xor(lits[v.child[0]], lits[v.child[1]]);
  }
  return kLitFalse;
}

void lower_cone(const ExtractView& view, const Extraction& solution,
                const std::vector<SerializedRoot>& roots, Aig& aig,
                ExtractScratch& scratch, std::vector<std::uint32_t>* order) {
  std::vector<Lit>& lits = scratch.lits;
  lits.assign(view.num_classes(), kLitFalse);
  if (order != nullptr) order->clear();
  const Walk walk = walk_chosen(
      view, solution, roots, scratch, [&](std::uint32_t d, const Node& v) {
        lits[d] = lower_enode(aig, v, lits);
        if (order != nullptr) order->push_back(d);
      });
  if (walk == Walk::kUncovered) {
    throw std::invalid_argument(
        "lower_cone: extraction does not cover the output cone");
  }
  if (walk == Walk::kCycle) {
    throw std::invalid_argument("lower_cone: extraction is cyclic");
  }
}

Aig extraction_to_aig(const ExtractView& view, const Extraction& solution,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names,
                      ExtractScratch& scratch) {
  Aig aig;
  for (const auto& name : pi_names) aig.add_pi(name);
  lower_cone(view, solution, roots, aig, scratch);
  for (const SerializedRoot& r : roots) {
    Lit lit = scratch.lits[view.dense(r.id)];
    aig.add_po(lit_notcond(lit, r.complemented), r.name);
  }
  return aig;
}

Aig extraction_to_aig(const EGraph& egraph, const Extraction& solution,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names) {
  ExtractScratch scratch;
  return extraction_to_aig(ExtractView(egraph), solution, roots, pi_names,
                           scratch);
}

}  // namespace emorphic
