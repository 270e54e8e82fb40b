// Reproduces Fig. 1: the structural-bias case study. Repeated rounds of
// the technology-independent delay flow approach a near-local optimum;
// E-morphic's parallel structural exploration then finds circuits whose
// *mapped* delay beats that plateau.
//
// Output: normalized delay after each independent-optimization pass,
// followed by the delay E-morphic reaches from the plateau point.

#include <cstdio>

#include "bench_util.hpp"

using namespace emorphic;
using namespace emorphic::bench;

int main() {
  std::printf("=== Fig. 1: delay across optimization passes ===\n\n");
  const char* name = "multiplier";
  Aig circuit = make_epfl(name);
  FlowParams params = paper_flow_params();

  std::printf("circuit: %s (%u ANDs, %u levels)\n\n", name,
              circuit.num_ands(), circuit.num_levels());
  std::printf("%-28s %10s %12s\n", "stage", "delay(ps)", "normalized");

  MappedQor first = map_qor(circuit, *params.library, params.mapping);
  double norm = first.delay;
  std::printf("%-28s %10.1f %12.3f\n", "initial (direct map)", first.delay,
              1.0);

  // Independent optimization passes: each is one gated baseline round —
  // the incumbent only changes when the mapped delay improves, so the
  // trajectory descends onto the near-local-optimum plateau of Fig. 1.
  Aig cur = strash(circuit);
  Aig best = cur;
  double plateau = first.delay;
  for (unsigned round = 1; round <= 5; ++round) {
    cur = strash(cur);
    if (round % 2 == 0) {
      cur = sop_balance(strash(dch_substitute(cur)), params.sop_balance);
    } else {
      cur = dch_substitute(strash(sop_balance(cur, params.sop_balance)));
    }
    MappedNetlist netlist = map_to_cells(cur, *params.library, params.mapping);
    if (netlist.delay() < plateau) {
      plateau = netlist.delay();
      best = cur;
    }
    std::printf("%-28s %10.1f %12.3f\n",
                ("after pass " + std::to_string(round)).c_str(), plateau,
                plateau / norm);
  }

  // E-morphic structural exploration from the plateau.
  FlowParams em_params = params;
  em_params.rounds = 1;  // the plateau circuit is already optimized
  em_params.sa.moves_per_iteration = 4;
  FlowResult em = Pipeline::emorphic(em_params).run(best, em_params);
  std::printf("%-28s %10.1f %12.3f\n", "E-morphic exploration", em.qor.delay,
              em.qor.delay / norm);

  std::printf("\nPlateau delay:   %10.1f ps\n", plateau);
  std::printf("E-morphic delay: %10.1f ps (%+.2f%% vs plateau)\n",
              em.qor.delay, 100.0 * (em.qor.delay / plateau - 1.0));
  std::printf("\nShape target (Fig. 1): independent passes flatten out; "
              "e-graph exploration moves below the plateau.\n");
  return 0;
}
