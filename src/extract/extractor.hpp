#pragma once
// E-graph extraction: choosing one e-node per e-class so that the term DAG
// rooted at the circuit outputs is optimized under a cost function.
// Exact extraction is NP-hard [18]; this module provides
//  * the classic greedy bottom-up extractor (sum cost / depth cost),
//  * random extraction (used to seed SA chains and to sample structural
//    variants for the ML dataset),
//  * the paper's Algorithm 1 ("Generate Neighboring Solution"): a bottom-up
//    pass from the leaves with per-class cost caching (`Costs_map`) and
//    solution-space pruning (Fig. 6), optionally randomized so SA can
//    explore,
//  * one post-order walk of a solution's chosen cone (children
//    0..arity-1 before their class), behind its well-foundedness check,
//    its cost, dag_refine's marking and its lowering into an AIG
//    (lower_cone / lower_enode, which SA scoring and the choice export in
//    flow/choice_export.hpp both go through).
// All of them run over an ExtractView, the e-graph compiled once into flat
// arrays, with caller-owned ExtractScratch, so an SA chain's moves reuse
// one view and one scratch.

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/egraph.hpp"
#include "util/rng.hpp"

namespace emorphic {

/// Cost kinds of Algorithm 1: "sum cost" approximates size, "depth cost"
/// approximates logic depth (the delay proxy).
enum class CostKind { kSize, kDepth };

struct CostModel {
  CostKind kind = CostKind::kSize;

  /// Per-operator cost, in AIG-node units: AND/OR lower to one AIG node,
  /// XOR to three; NOT is a complemented edge and therefore free.
  double op_cost(Op op) const {
    switch (op) {
      case Op::kAnd:
      case Op::kOr:
        return 1.0;
      case Op::kXor:
        return kind == CostKind::kDepth ? 2.0 : 3.0;
      default:
        return 0.0;
    }
  }
};

/// A solution: for every canonical e-class, the index of the chosen e-node
/// within `eclass(id).nodes` (kNoChoice if the class is not selected).
class Extraction {
 public:
  /// Sentinel choice index: the class is not part of the solution.
  static constexpr std::uint32_t kNoChoice = 0xffffffffu;

  /// A solution over `num_class_slots` classes, all initially unchosen.
  explicit Extraction(std::size_t num_class_slots = 0)
      : choice_(num_class_slots, kNoChoice) {}

  /// Has a node been chosen for class `cls`?
  bool has(EClassId cls) const {
    return cls < choice_.size() && choice_[cls] != kNoChoice;
  }
  /// Index of the chosen e-node within `eclass(cls).nodes` (unchecked;
  /// call has() first).
  std::uint32_t choice(EClassId cls) const { return choice_[cls]; }
  /// Select node `node_index` for class `cls` (growing the slot table as
  /// needed).
  void choose(EClassId cls, std::uint32_t node_index) {
    if (cls >= choice_.size()) choice_.resize(cls + 1, kNoChoice);
    choice_[cls] = node_index;
  }
  /// Number of class slots (>= every chosen class id + 1).
  std::size_t size() const { return choice_.size(); }
  /// The raw per-class choice table (kNoChoice for unchosen slots).
  const std::vector<std::uint32_t>& raw() const { return choice_; }

 private:
  std::vector<std::uint32_t> choice_;
};

/// Instrumentation for the Fig. 6 pruning experiment.
struct ExtractStats {
  /// Cost evaluations performed.
  std::size_t enodes_visited = 0;
  /// Evaluations avoided by pruning.
  std::size_t enodes_skipped = 0;
  /// Worklist pops / full passes.
  std::size_t passes = 0;
};

/// "Not yet reachable" cost sentinel of the bottom-up relaxation.
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// The saturated e-graph compiled once for extraction: a read-only,
/// find()-free view that every extraction entry point runs over.
///
///  * Every canonical class gets a dense id, in class_ids() order (so dense
///    order is slot order).
///  * Each e-node is one flat record: its operator plus its children's
///    dense ids, with find() resolved at build time; a class's nodes are a
///    contiguous run in `eclass(id).nodes` order, so a node's offset within
///    its run is the choice index an Extraction stores.
///  * Parent lists are CSR (compressed sparse rows) of dense parent-class
///    ids in parent-edge order, duplicates dropped after their first
///    occurrence (Algorithm 1 enqueues a parent once per visit anyway).
///  * The leaf classes (those with an arity-0 node) are listed in dense
///    order: Algorithm 1's queue seed.
///
/// A view never changes after construction, so SA chains share one across
/// threads. It is valid while the e-graph it came from is not mutated.
class ExtractView {
 public:
  /// One e-node: operator plus dense child ids (unused slots are
  /// kNoEClass). A kVar node keeps its primary-input symbol in child[0].
  struct Node {
    std::array<std::uint32_t, 2> child;
    Op op;
    std::uint32_t symbol() const { return child[0]; }
  };

  explicit ExtractView(const EGraph& egraph);

  /// Number of canonical classes (dense ids are [0, num_classes())).
  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(slot_.size());
  }
  /// Class slots of the source e-graph (the size of an Extraction over it).
  std::size_t num_slots() const { return dense_.size(); }
  /// Total e-nodes over all canonical classes.
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Canonical class id (slot) of dense class `d`.
  EClassId slot(std::uint32_t d) const { return slot_[d]; }
  /// Dense id of the class `id` belongs to (find() already applied).
  std::uint32_t dense(EClassId id) const { return dense_[id]; }
  /// Flat index of dense class `d`'s first node; its nodes end at
  /// node_begin(d + 1).
  std::uint32_t node_begin(std::uint32_t d) const { return node_begin_[d]; }
  /// The node at flat index `i`.
  const Node& node(std::uint32_t i) const { return nodes_[i]; }
  /// The node `solution` chooses for dense class `d` (unchecked: the class
  /// must be chosen).
  const Node& chosen(const Extraction& solution, std::uint32_t d) const {
    return nodes_[node_begin_[d] + solution.choice(slot_[d])];
  }
  /// Dense parent classes of `d`: [parents_begin(d), parents_end(d)).
  const std::uint32_t* parents_begin(std::uint32_t d) const {
    return parents_.data() + parent_begin_[d];
  }
  const std::uint32_t* parents_end(std::uint32_t d) const {
    return parents_.data() + parent_begin_[d + 1];
  }
  /// Leaf classes in dense order.
  const std::vector<std::uint32_t>& leaves() const { return leaves_; }

  /// Compare the view against the e-graph it claims to compile; returns an
  /// empty string when consistent, else the first difference. O(nodes +
  /// parent edges); run at construction under EMORPHIC_CHECKS.
  std::string check(const EGraph& egraph) const;

 private:
  std::vector<EClassId> slot_;              // dense -> canonical class id
  std::vector<std::uint32_t> dense_;        // any class id -> dense id
  std::vector<std::uint32_t> node_begin_;   // dense -> first node (n + 1)
  std::vector<Node> nodes_;                 // all nodes, class by class
  std::vector<std::uint32_t> parent_begin_; // dense -> first parent (n + 1)
  std::vector<std::uint32_t> parents_;      // dense parent classes
  std::vector<std::uint32_t> leaves_;       // Algorithm 1's queue seed
};

/// Working memory of the extraction kernels. Everything here is sized to a
/// view on first use and only refilled afterwards, so a thread (one SA
/// chain) that keeps one scratch runs its moves without allocator traffic
/// beyond the Extractions it returns. Contents are meaningless between
/// calls; one scratch must not be used by two threads at once.
struct ExtractScratch {
  /// Per class: its entry in the paper's Costs_map, and the clock of its
  /// last change as its parents see it (side by side: the pruned pass
  /// reads both for every child it checks).
  struct ClassCost {
    double cost;
    std::uint64_t changed;
  };
  std::vector<ClassCost> classes;
  std::vector<std::uint64_t> memo;    // per flat node: clock of its last evaluation
  std::vector<std::uint32_t> queue;   // FIFO ring over dense classes
  std::vector<std::uint8_t> queued;   // per class: in the queue
  std::vector<std::uint8_t> state;    // per class: state of the cone walk
  std::vector<double> depth;          // solution_cost's longest paths
  std::vector<Lit> lits;              // per class: lower_cone's literal
  std::vector<std::uint32_t> stack;   // cone walk's stack of dense classes
};

/// Configuration of one bottom_up_extract run (Algorithm 1).
struct BottomUpOptions {
  /// Cost model to minimize (required).
  const CostModel* cost = nullptr;
  /// Algorithm 1's random skip chance (exploration for SA neighbors).
  double p_random = 0.0;
  /// RNG for the random skips; required when p_random > 0.
  Rng* rng = nullptr;
  /// Solution-space pruning (Fig. 6) on/off.
  bool prune = true;
  /// O_current in Algorithm 1: seed the pass with an existing solution.
  const Extraction* warm_start = nullptr;
  /// Optional instrumentation counters.
  ExtractStats* stats = nullptr;
};

// Every entry point below runs over an ExtractView with caller-owned
// scratch. The EGraph overloads are conveniences for one-off calls: each
// compiles a view, runs the same kernel once and drops both.

/// The bottom-up extraction kernel (Algorithm 1). Returns a complete
/// solution; `out_costs`, when given, receives the per-class cost map
/// indexed by class id (kInfCost for unreached and non-canonical slots).
Extraction bottom_up_extract(const ExtractView& view,
                             const BottomUpOptions& options,
                             ExtractScratch& scratch,
                             std::vector<double>* out_costs = nullptr);
Extraction bottom_up_extract(const EGraph& egraph, const BottomUpOptions& options,
                             std::vector<double>* out_costs = nullptr);

/// Greedy bottom-up extraction (no randomness), the paper's baseline
/// extractor and SA initial solution.
Extraction greedy_extract(const ExtractView& view, const CostModel& cost,
                          ExtractScratch& scratch,
                          ExtractStats* stats = nullptr, bool prune = true);
Extraction greedy_extract(const EGraph& egraph, const CostModel& cost,
                          ExtractStats* stats = nullptr, bool prune = true);

/// Random extraction: a uniformly random *well-founded* choice per class
/// (children always selected before parents, so the result is acyclic).
Extraction random_extract(const ExtractView& view, Rng& rng);
Extraction random_extract(const EGraph& egraph, Rng& rng);

/// DAG-aware refinement: tree-cost extraction double-counts shared logic,
/// so greedy solutions duplicate structure. Each refinement pass
/// re-extracts with *marginal* costs — classes the incumbent already uses
/// contribute zero — then keeps the result only if it is well-founded and
/// its true DAG cost improved. Converges in a couple of passes and
/// typically removes much of the duplication (the area half of Table II).
Extraction dag_refine(const ExtractView& view, Extraction base,
                      const CostModel& cost,
                      const std::vector<SerializedRoot>& roots,
                      ExtractScratch& scratch, unsigned passes = 2);
Extraction dag_refine(const EGraph& egraph, const Extraction& base,
                      const CostModel& cost,
                      const std::vector<SerializedRoot>& roots,
                      unsigned passes = 2);

/// Is `solution` a well-founded (acyclic) selection covering the cone of
/// `roots`?
bool solution_is_well_founded(const ExtractView& view,
                              const Extraction& solution,
                              const std::vector<SerializedRoot>& roots,
                              ExtractScratch& scratch);
bool solution_is_well_founded(const EGraph& egraph, const Extraction& solution,
                              const std::vector<SerializedRoot>& roots);

/// DAG-aware cost of a solution restricted to the cone of `roots`:
/// size sums each selected class once; depth takes the longest path.
/// kInfCost when the solution is not well-founded.
double solution_cost(const ExtractView& view, const Extraction& solution,
                     const CostModel& cost,
                     const std::vector<SerializedRoot>& roots,
                     ExtractScratch& scratch);
double solution_cost(const EGraph& egraph, const Extraction& solution,
                     const CostModel& cost,
                     const std::vector<SerializedRoot>& roots);

/// Lower one e-node into `aig` over its children's literals `lits` (per
/// dense class). NOT and the leaves map to existing literals; a kVar node
/// is `aig`'s PI number symbol(). The e-graph -> AIG seam's one op switch.
Lit lower_enode(Aig& aig, const ExtractView::Node& v,
                const std::vector<Lit>& lits);

/// Lower the cone `solution` chooses below `roots` into `aig` (whose PIs
/// the kVar symbols index), children before parents. Fills
/// scratch.lits[d] for every class d of the cone and, when `order` is
/// given, replaces its contents with those classes in the order they were
/// lowered. Throws std::invalid_argument when the solution does not cover
/// the cone or is cyclic.
void lower_cone(const ExtractView& view, const Extraction& solution,
                const std::vector<SerializedRoot>& roots, Aig& aig,
                ExtractScratch& scratch,
                std::vector<std::uint32_t>* order = nullptr);

/// Rebuild an AIG from a solution: PIs named `pi_names` (indexed by kVar
/// symbol), then lower_cone, then the roots as POs with their complement
/// flags and names. Throws std::invalid_argument as lower_cone does.
Aig extraction_to_aig(const ExtractView& view, const Extraction& solution,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names,
                      ExtractScratch& scratch);
Aig extraction_to_aig(const EGraph& egraph, const Extraction& solution,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names);

}  // namespace emorphic
