#include "egraph/choices.hpp"

#include <algorithm>

namespace emorphic {

std::vector<std::uint32_t> choice_candidates(const EGraph& egraph,
                                             EClassId cls,
                                             std::uint32_t chosen_index,
                                             std::uint32_t cap) {
  const EClass& eclass = egraph.eclass(cls);
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < eclass.nodes.size(); ++i) {
    if (i == chosen_index) continue;
    if (eclass.nodes[i].arity() != 2) continue;  // only ops that build structure
    candidates.push_back(i);
  }
  // Stable, rebuild-independent order: operator first (AND before OR before
  // XOR — cheaper lowerings first), then canonical child ids.
  std::sort(candidates.begin(), candidates.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const ENode& na = eclass.nodes[a];
              const ENode& nb = eclass.nodes[b];
              if (na.op != nb.op) return op_index(na.op) < op_index(nb.op);
              EClassId a0 = egraph.find(na.children[0]);
              EClassId b0 = egraph.find(nb.children[0]);
              if (a0 != b0) return a0 < b0;
              EClassId a1 = egraph.find(na.children[1]);
              EClassId b1 = egraph.find(nb.children[1]);
              if (a1 != b1) return a1 < b1;
              return a < b;
            });
  if (candidates.size() > cap) candidates.resize(cap);
  return candidates;
}

}  // namespace emorphic
