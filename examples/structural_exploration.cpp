// Structural exploration in slow motion: this example deliberately works
// BELOW the Pipeline API (see quickstart.cpp for that), calling the
// primitives each stage wraps. It converts an optimized multiplier into an
// e-graph, rewrites it, and then shows how *different extractions of the
// same e-graph* map to very different circuits — the structural-bias story
// of the paper's introduction, made concrete.
//
//   $ ./build/examples/structural_exploration

#include <cstdio>

#include "core/emorphic.hpp"
#include "util/rng.hpp"

using namespace emorphic;

int main() {
  Aig circuit = make_multiplier(8);
  const CellLibrary& lib = CellLibrary::asap7_like();

  // Conventional optimization first, as E-morphic does (Sec. III-A).
  Aig optimized = dch_substitute(sop_balance(strash(circuit)));
  MappedQor base = map_qor(optimized, lib);
  std::printf("conventionally optimized: %u ANDs, depth %u -> mapped "
              "%.2f um^2, %.1f ps\n\n",
              optimized.num_ands(), optimized.num_levels(), base.area,
              base.delay);

  // Direct DAG-to-DAG conversion + a few rewriting iterations.
  CircuitEGraph ce = aig_to_egraph(optimized);
  RunnerParams limits;
  limits.max_iterations = 4;
  limits.max_enodes = 30000;
  RunnerReport report = run_rewriting(ce.egraph, make_logic_rules(), limits);
  std::printf("rewriting: %zu iterations, stop: %s\n",
              report.iterations.size(), stop_reason_name(report.stop_reason));
  std::printf("e-graph now holds %zu e-nodes in %zu classes "
              "(avg %.2f structural choices per class)\n\n",
              ce.egraph.num_enodes(), ce.egraph.num_classes(),
              static_cast<double>(ce.egraph.num_enodes()) /
                  static_cast<double>(ce.egraph.num_classes()));

  // The same e-graph, five different extractions.
  std::printf("%-26s %8s %7s %10s %10s\n", "extraction", "ANDs", "depth",
              "area(um2)", "delay(ps)");
  auto report_one = [&](const char* name, const Extraction& sol) {
    Aig aig = egraph_to_aig(ce, sol);
    MappedQor qor = map_qor(aig, lib);
    std::printf("%-26s %8u %7u %10.2f %10.1f\n", name, aig.num_ands(),
                aig.num_levels(), qor.area, qor.delay);
  };
  report_one("greedy, depth cost",
             greedy_extract(ce.egraph, CostModel{CostKind::kDepth}));
  report_one("greedy, sum cost",
             greedy_extract(ce.egraph, CostModel{CostKind::kSize}));
  Rng rng(7);
  report_one("random #1", random_extract(ce.egraph, rng));
  report_one("random #2", random_extract(ce.egraph, rng));

  // Simulated annealing with the exact (mapper) cost model.
  MapQorEvaluator evaluator(lib);
  SaParams sa;
  sa.num_threads = 4;
  sa.iterations = 3;
  sa.moves_per_iteration = 3;
  SaResult best = sa_extract(ce.egraph, ce.roots, ce.pi_names, evaluator, sa);
  report_one("simulated annealing", best.best);
  std::printf("\nSA explored %zu candidate structures across 4 threads "
              "(%zu cost evaluations, %.2f s)\n",
              best.trace.size(), best.evaluations, best.seconds);

  // Verify the SA winner.
  Aig winner = egraph_to_aig(ce, best.best);
  std::printf("cec(original, SA winner): %s\n",
              cec_status_name(cec(circuit, winner).status));
  return 0;
}
