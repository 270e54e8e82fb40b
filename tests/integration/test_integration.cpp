// End-to-end integration tests: the complete E-morphic pipeline on real
// (scaled) benchmark circuits, both cost-model modes, with SAT-backed
// equivalence checking — the full Fig. 5 loop.

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/emorphic.hpp"

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 10000;
  params.rewrite.time_limit_s = 5.0;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.cec_params.conflict_limit = 100000;
  return params;
}

TEST(Integration, QualityModeOnAdder) {
  Aig adder = make_adder(8);
  EmorphicOptions options;
  options.flow = quick_params();
  options.mode = CostModelMode::kQualityPrioritized;
  FlowResult result = optimize(adder, options);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  EXPECT_GT(result.qor.delay, 0.0);
}

TEST(Integration, RuntimeModeSelfTrains) {
  Aig mult = make_multiplier(6);
  EmorphicOptions options;
  options.flow = quick_params();
  options.flow.verify = true;
  options.mode = CostModelMode::kRuntimePrioritized;
  FlowResult result = optimize(mult, options);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
}

TEST(Integration, RuntimeModeWithPretrainedModel) {
  Aig circuit = make_sin(6);
  DatasetParams dp;
  dp.variants_per_circuit = 16;
  dp.rewrite.max_iterations = 2;
  dp.rewrite.max_enodes = 6000;
  Dataset data = generate_variants(circuit, CellLibrary::asap7_like(), dp);
  MlpParams mp;
  mp.epochs = 60;
  MlCostModel model(mp);
  model.train(data.features, data.delays, data.areas);

  EmorphicOptions options;
  options.flow = quick_params();
  options.mode = CostModelMode::kRuntimePrioritized;
  options.ml_model = &model;
  FlowResult result = optimize(circuit, options);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
}

TEST(Integration, EveryEpflCircuitSurvivesTheQuickPipeline) {
  // Smoke the full pipeline on the three smallest registry circuits (the
  // full sweep is the Table II bench, not a unit test).
  for (const char* name : {"adder", "sin", "arbiter"}) {
    Aig circuit = make_epfl(name);
    FlowParams params = quick_params();
    FlowResult result = Pipeline::emorphic(params).run(circuit, params);
    EXPECT_EQ(result.verify_status, CecStatus::kEquivalent) << name;
    EXPECT_GT(result.egraph_enodes, result.initial_enodes) << name;
  }
}

TEST(Integration, IoRoundTripThroughEquationFormat) {
  // Fig. 5's pre/post-processing path: equation text -> AIG -> optimize ->
  // equation text, with equivalence verified.
  Aig original = make_adder(6);
  std::string eq = write_equations(original);
  Aig parsed = read_equations(eq);
  FlowParams params = quick_params();
  FlowResult result = Pipeline::emorphic(params).run(parsed, params);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  std::string eq_out = write_equations(result.final_aig);
  Aig reparsed = read_equations(eq_out);
  EXPECT_EQ(cec(original, reparsed).status, CecStatus::kEquivalent);
}

TEST(Integration, VersionString) {
  EXPECT_NE(std::string(version()).find("emorphic"), std::string::npos);
}

}  // namespace
}  // namespace emorphic
