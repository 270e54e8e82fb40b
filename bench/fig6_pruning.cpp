// Reproduces Fig. 6: solution-space pruning. The baseline bottom-up
// extractor re-evaluates every e-node on every sweep; the pruned extractor
// (worklist + per-class cost cache + skip of provably-not-cheaper nodes)
// touches a fraction of the search space with identical greedy results.

#include <cstdio>

#include "bench_util.hpp"
#include "egraph/rules.hpp"
#include "util/timer.hpp"

using namespace emorphic;
using namespace emorphic::bench;

int main() {
  std::printf("=== Fig. 6: solution-space pruning ablation ===\n\n");
  std::printf("%-10s %9s | %12s %12s %9s | %12s %12s %9s | %7s %8s\n",
              "circuit", "#e-nodes", "full visits", "(passes)", "time(ms)",
              "pruned visits", "(skipped)", "time(ms)", "visit x", "same?");
  print_rule(118);

  std::vector<double> reductions;
  for (const auto& spec : epfl_specs()) {
    Aig circuit = make_epfl(spec.name);
    // Moderate rewriting so classes have many equivalent nodes (the
    // "commutative/associative redundancy" Fig. 6 talks about).
    CircuitEGraph ce = aig_to_egraph(dch_substitute(strash(circuit)));
    RunnerParams limits;
    limits.max_iterations = 4;
    limits.max_enodes = circuit.num_ands() > 3000 ? 25000 : 15000;
    limits.time_limit_s = 5.0;
    limits.max_matches_per_rule = 2000;
    run_rewriting(ce.egraph, make_logic_rules(), limits);

    CostModel cost{CostKind::kDepth};
    ExtractStats full_stats;
    Timer t1;
    Extraction full = greedy_extract(ce.egraph, cost, &full_stats, false);
    double full_ms = t1.milliseconds();

    ExtractStats pruned_stats;
    Timer t2;
    Extraction pruned = greedy_extract(ce.egraph, cost, &pruned_stats, true);
    double pruned_ms = t2.milliseconds();

    double c_full = solution_cost(ce.egraph, full, cost, ce.roots);
    double c_pruned = solution_cost(ce.egraph, pruned, cost, ce.roots);
    double ratio = static_cast<double>(full_stats.enodes_visited) /
                   std::max<std::size_t>(1, pruned_stats.enodes_visited);
    reductions.push_back(ratio);

    std::printf(
        "%-10s %9zu | %12zu %12zu %9.1f | %12zu %12zu %9.1f | %6.1fx %8s\n",
        spec.name.c_str(), ce.egraph.num_enodes(), full_stats.enodes_visited,
        full_stats.passes, full_ms, pruned_stats.enodes_visited,
        pruned_stats.enodes_skipped, pruned_ms, ratio,
        c_full == c_pruned ? "yes" : "NO!");
  }
  print_rule(118);
  std::printf("geomean search-space reduction: %.1fx\n", geomean(reductions));
  std::printf("\nShape target (Fig. 6): pruning shrinks the searched node "
              "count by a large factor at identical extraction quality.\n");
  return 0;
}
