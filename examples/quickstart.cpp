// Quickstart: build a circuit, assemble the E-morphic pipeline, watch it
// run through an observer, inspect the result, and verify equivalence —
// the five-minute tour of the public API.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/emorphic.hpp"

using namespace emorphic;

namespace {

/// Prints one line per finished pipeline stage — the simplest useful
/// FlowObserver.
class PrintingObserver : public FlowObserver {
 public:
  void on_stage_end(const Stage&, const StageTelemetry& stage,
                    const FlowContext&) override {
    std::printf("  [%zu] %-16s %6.3f s\n", stage.index, stage.name.c_str(),
                stage.seconds);
  }
};

}  // namespace

int main() {
  std::printf("%s\n\n", version());

  // 1. Build a circuit. Any AIG works; here, an 8-bit ripple-carry adder
  //    (you could also read_equations(...) or read_aiger(...)).
  Aig circuit = make_adder(8);
  std::printf("input:  %u PIs, %u POs, %u ANDs, depth %u\n",
              circuit.num_pis(), circuit.num_pos(), circuit.num_ands(),
              circuit.num_levels());

  // 2. Configure the flow. Defaults mirror the paper (Sec. IV-A); here we
  //    shrink limits so the example runs in a couple of seconds.
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 20000;
  params.sa.num_threads = 2;
  params.sa.moves_per_iteration = 2;

  // 3. Run the prebuilt E-morphic pipeline (Fig. 5) with an observer.
  //    Pipeline::emorphic() is ResynRounds -> EgraphConversion -> Rewrite ->
  //    SaExtract -> EgraphConversion -> TechMap -> Cec; you can also compose
  //    your own with Pipeline().add("..."), or let optimize() pick the cost
  //    model (exact mapping or ML) and run this same pipeline for you.
  std::printf("\nrunning Pipeline::emorphic():\n");
  PrintingObserver observer;
  FlowResult result = Pipeline::emorphic().run(circuit, params, &observer);

  // 4. Inspect the results.
  std::printf("\ne-graph: %zu e-nodes grown from %zu (%zu classes)\n",
              result.egraph_enodes, result.initial_enodes,
              result.egraph_classes);
  std::printf("mapped:  area %.2f um^2, delay %.1f ps, %u levels, %.2f s\n",
              result.qor.area, result.qor.delay, result.qor.lev,
              result.qor.seconds);
  std::printf("verify:  %s (SAT-backed cec, as in the paper)\n",
              cec_status_name(result.verify_status));

  // 5. Export: the optimized AIG as equations, the mapped netlist as BLIF.
  std::string eq = write_equations(result.final_aig);
  std::printf("\nfirst lines of the optimized equation file:\n");
  std::printf("%s...\n", eq.substr(0, 200).c_str());
  if (result.netlist.has_value()) {
    std::string blif = result.netlist->to_blif("adder_emorphic");
    std::printf("\nfirst lines of the mapped BLIF:\n%s...\n",
                blif.substr(0, 200).c_str());
  }
  return 0;
}
