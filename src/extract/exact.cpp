#include "extract/exact.hpp"

#include <algorithm>

namespace emorphic {

std::optional<Extraction> exact_extract(const EGraph& egraph,
                                        const std::vector<SerializedRoot>& roots,
                                        const ExactParams& params) {
  // Enumerate assignments only over classes reachable from the roots
  // through *any* e-node (the relevant universe).
  std::vector<EClassId> universe;
  {
    std::vector<bool> seen(egraph.num_classes_created(), false);
    std::vector<EClassId> stack;
    for (const SerializedRoot& r : roots) stack.push_back(egraph.find(r.id));
    while (!stack.empty()) {
      EClassId c = egraph.find(stack.back());
      stack.pop_back();
      if (seen[c]) continue;
      seen[c] = true;
      universe.push_back(c);
      for (const ENode& n : egraph.eclass(c).nodes) {
        for (unsigned k = 0; k < n.arity(); ++k) {
          stack.push_back(egraph.find(n.children[k]));
        }
      }
    }
  }
  std::sort(universe.begin(), universe.end());

  // Bail out if the mixed-radix assignment space is too large.
  double combinations = 1.0;
  for (EClassId c : universe) {
    combinations *= static_cast<double>(egraph.eclass(c).nodes.size());
    if (combinations > static_cast<double>(params.max_combinations)) {
      return std::nullopt;
    }
  }

  const ExtractView view(egraph);
  ExtractScratch scratch;
  std::vector<std::uint32_t> digits(universe.size(), 0);
  std::optional<Extraction> best;
  double best_cost = kInfCost;
  for (;;) {
    Extraction candidate(egraph.num_classes_created());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      candidate.choose(universe[i], digits[i]);
    }
    // A cyclic assignment costs kInfCost and never wins.
    double cost = solution_cost(view, candidate, params.cost, roots, scratch);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
    // Increment the mixed-radix counter.
    std::size_t pos = 0;
    while (pos < universe.size()) {
      if (++digits[pos] < egraph.eclass(universe[pos]).nodes.size()) break;
      digits[pos] = 0;
      ++pos;
    }
    if (pos == universe.size()) break;
  }
  return best;
}

}  // namespace emorphic
