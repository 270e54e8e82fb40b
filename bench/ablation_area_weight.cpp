// Ablation for a design choice this reproduction adds on top of the paper:
// the area term in the SA cost (cost = delay + w * area). The paper states
// delay is the primary metric yet reports area *savings*; with w = 0 our
// SA drifts into area-bloated delay-optimal structures (tree-shaped
// extractions duplicate shared logic), while a moderate w recovers area at
// little delay cost. This bench sweeps w to expose that Pareto trade.

#include <cstdio>

#include "bench_util.hpp"

using namespace emorphic;
using namespace emorphic::bench;

int main() {
  std::printf("=== Ablation: area weight in the SA cost model ===\n\n");
  const char* names[] = {"multiplier", "sqrt", "sin"};
  for (const char* name : names) {
    Aig circuit = make_epfl(name);
    FlowParams params = paper_flow_params();
    params.rewrite.max_enodes = 30000;

    FlowResult base = Pipeline::baseline(params).run(circuit, params);
    std::printf("%s: baseline area %.1f, delay %.1f\n", name, base.qor.area,
                base.qor.delay);
    std::printf("%8s %12s %12s %14s %14s\n", "w", "area(um2)", "delay(ps)",
                "area vs base", "delay vs base");
    print_rule(66);
    for (double w : {0.0, 0.25, 0.5, 1.0, 2.0}) {
      FlowParams p = params;
      p.area_weight = w;
      FlowResult em = Pipeline::emorphic(p).run(circuit, p);
      std::printf("%8.2f %12.1f %12.1f %+13.1f%% %+13.1f%%\n", w, em.qor.area,
                  em.qor.delay, 100.0 * (em.qor.area / base.qor.area - 1.0),
                  100.0 * (em.qor.delay / base.qor.delay - 1.0));
    }
    std::printf("\n");
  }
  std::printf("Shape target: w=0 minimizes delay but bloats area; moderate w "
              "recovers area at little delay cost.\n");
  return 0;
}
