#pragma once
// Direct DAG-to-DAG conversion between circuits and e-graphs (Sec. III-D.1,
// Fig. 8): every AIG node becomes exactly one e-node referenced by id, so
// conversion is linear in circuit size — no S-expression flattening, no
// duplication of shared logic. This is the enabling step that lets
// E-morphic apply equality saturation to 10^5-node circuits (Table III).

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/egraph.hpp"
#include "extract/extractor.hpp"

namespace emorphic {

/// An e-graph bound to a circuit interface: designated root classes (one
/// per PO, with complement flags) and PI names indexed by kVar symbol.
struct CircuitEGraph {
  EGraph egraph;
  std::vector<SerializedRoot> roots;
  std::vector<std::string> pi_names;
};

/// Forward conversion (circuit -> e-graph), linear time.
CircuitEGraph aig_to_egraph(const Aig& aig);

/// Backward conversion (e-graph -> circuit) under a given extraction.
Aig egraph_to_aig(const CircuitEGraph& ce, const Extraction& solution);

/// Convenience backward conversion with greedy extraction.
Aig egraph_to_aig_greedy(const CircuitEGraph& ce,
                         CostKind kind = CostKind::kSize);

}  // namespace emorphic
