// Reproduces Fig. 9: runtime breakdown of the E-morphic flow — how much of
// the wall clock goes to the conventional ABC-style delay flow vs. e-graph
// conversion vs. SA extraction, for both cost models.
//
// The per-stage times come from the pipeline's own telemetry
// (FlowResult::telemetry), not hand-inserted timers: each Fig. 9 bucket is
// the FlowTelemetry::seconds_for sum of the stages it groups.
//
// Shape target: the conventional flow dominates; conversion is negligible;
// the E-morphic additions are moderate and relatively smaller on the
// larger circuits.

#include <cstdio>

#include "bench_util.hpp"

using namespace emorphic;
using namespace emorphic::bench;

namespace {

FlowTelemetry run_with_telemetry(const Aig& circuit, const FlowParams& params,
                                 const QorEvaluator* evaluator) {
  FlowContext ctx;
  ctx.params = params;
  ctx.input = circuit;
  ctx.evaluator = evaluator;
  return Pipeline::emorphic(params).run(ctx).telemetry;
}

void print_breakdown(
    const char* title,
    const std::vector<std::pair<std::string, FlowTelemetry>>& rows) {
  std::printf("%s\n", title);
  std::printf("%-10s %9s | %7s %7s %7s | 0%%       bar chart        100%%\n",
              "circuit", "total(s)", "flow%", "conv%", "SA%");
  print_rule(88);
  for (const auto& [name, t] : rows) {
    // ResynRounds + TechMap are the conventional flow; rewriting is folded
    // into the SA bar, as the paper groups the e-graph-specific work into
    // "conversion" + "SA extraction". Cec is excluded.
    double flow = t.seconds_for("ResynRounds") + t.seconds_for("TechMap");
    double conv = t.seconds_for("EgraphConversion");
    double sa = t.seconds_for("SaExtract") + t.seconds_for("Rewrite");
    double total = flow + conv + sa;
    double pf = 100.0 * flow / total;
    double pc = 100.0 * conv / total;
    double ps = 100.0 * sa / total;
    char bar[33];
    int nf = static_cast<int>(pf * 32 / 100.0 + 0.5);
    int nc = static_cast<int>(pc * 32 / 100.0 + 0.5);
    for (int i = 0; i < 32; ++i) {
      bar[i] = i < nf ? '#' : (i < nf + nc ? 'o' : '.');
    }
    bar[32] = '\0';
    std::printf("%-10s %9.2f | %6.1f%% %6.1f%% %6.1f%% | %s\n", name.c_str(),
                total, pf, pc, ps, bar);
  }
  std::printf("  legend: # ABC-style delay flow   o e-graph conversion   . "
              "rewriting + SA extraction\n\n");
}

}  // namespace

int main() {
  std::printf("=== Fig. 9: runtime breakdown of E-morphic ===\n\n");
  FlowParams params = paper_flow_params();

  // Shared ML model for the runtime-prioritized panel.
  Dataset all;
  for (const char* name : {"adder", "sin", "arbiter", "square"}) {
    DatasetParams dp;
    dp.variants_per_circuit = 12;
    dp.rewrite.max_iterations = 3;
    dp.rewrite.max_enodes = 15000;
    dp.mapping.area_recovery = false;
    all.append(
        generate_variants(make_epfl(name), CellLibrary::asap7_like(), dp));
  }
  MlpParams mp;
  mp.epochs = 120;
  MlCostModel model(mp);
  model.train(all.features, all.delays, all.areas);

  std::vector<std::pair<std::string, FlowTelemetry>> exact_rows, ml_rows;
  for (const auto& spec : epfl_specs()) {
    Aig circuit = make_epfl(spec.name);
    FlowParams p = params;
    if (circuit.num_ands() > 3000) {
      p.rewrite.max_enodes = 40000;
      p.sa.moves_per_iteration = 2;
    }
    exact_rows.emplace_back(spec.name,
                            run_with_telemetry(circuit, p, nullptr));

    FlowParams pm = p;
    pm.sa.num_threads = 6;
    ml_rows.emplace_back(spec.name, run_with_telemetry(circuit, pm, &model));
    std::printf("[done] %s\n", spec.name.c_str());
  }
  std::printf("\n");
  print_breakdown("--- E-morphic with ABC-style mapping cost model ---",
                  exact_rows);
  print_breakdown("--- E-morphic with ML cost model ---", ml_rows);
  return 0;
}
