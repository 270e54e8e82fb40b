#include "flow/conversion.hpp"

namespace emorphic {

CircuitEGraph aig_to_egraph(const Aig& aig) {
  CircuitEGraph ce;
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    ce.pi_names.push_back(aig.pi_name(i));
  }

  // class_of[v]: e-class of the *uncomplemented* AIG variable. Complemented
  // edges materialize as (hash-consed) NOT e-nodes on demand, so each
  // polarity exists at most once — the conversion stays one-to-one.
  std::vector<EClassId> class_of(aig.num_nodes(), kNoEClass);
  class_of[0] = ce.egraph.add_const0();

  auto lit_class = [&](Lit lit) {
    EClassId base = class_of[lit_var(lit)];
    return lit_is_compl(lit) ? ce.egraph.add_not(base) : base;
  };

  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_pi(v)) {
      class_of[v] = ce.egraph.add_var(aig.pi_index(v));
    } else {
      class_of[v] =
          ce.egraph.add_and(lit_class(aig.fanin0(v)), lit_class(aig.fanin1(v)));
    }
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    Lit po = aig.po(i);
    SerializedRoot root;
    root.id = class_of[lit_var(po)];
    root.complemented = lit_is_compl(po);
    root.name = aig.po_name(i);
    ce.roots.push_back(std::move(root));
  }
  return ce;
}

Aig egraph_to_aig(const CircuitEGraph& ce, const Extraction& solution) {
  return extraction_to_aig(ce.egraph, solution, ce.roots, ce.pi_names)
      .cleanup();
}

Aig egraph_to_aig_greedy(const CircuitEGraph& ce, CostKind kind) {
  const ExtractView view(ce.egraph);
  ExtractScratch scratch;
  Extraction solution = greedy_extract(view, CostModel{kind}, scratch);
  return extraction_to_aig(view, solution, ce.roots, ce.pi_names, scratch)
      .cleanup();
}

}  // namespace emorphic
