// The two prebuilt flows of Sec. IV-C, run through Pipeline: the baseline
// delay flow of [22] and the E-morphic flow of Fig. 5.

#include "flow/pipeline.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 5.0;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.cec_params.conflict_limit = 50000;
  return params;
}

TEST(Flows, BaselineProducesValidMapping) {
  Aig adder = make_adder(8);
  FlowParams params = quick_params();
  FlowResult result = Pipeline::baseline(params).run(adder, params);
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  EXPECT_GT(result.qor.lev, 0u);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_TRUE(testing::functionally_equal(adder, result.netlist->to_aig()));
  EXPECT_EQ(cec(adder, result.final_aig).status, CecStatus::kEquivalent);
}

TEST(Flows, BaselineImprovesDelayOverDirectMap) {
  Aig mult = make_multiplier(8);
  FlowParams params = quick_params();
  MappedQor direct = map_qor(mult, *params.library, params.mapping);
  FlowResult optimized = Pipeline::baseline(params).run(mult, params);
  EXPECT_LT(optimized.qor.delay, direct.delay);
}

TEST(Flows, EmorphicFlowIsEquivalentAndComplete) {
  Aig arbiter = make_arbiter(8);
  FlowParams params = quick_params();
  params.verify = true;
  FlowResult result = Pipeline::emorphic(params).run(arbiter, params);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  // Telemetry must cover every stage Fig. 9 reports.
  for (const char* stage : {"ResynRounds", "TechMap", "EgraphConversion",
                            "Rewrite", "SaExtract"}) {
    EXPECT_GT(result.telemetry.seconds_for(stage), 0.0) << stage;
  }
  // Rewriting must have multiplied the e-graph.
  EXPECT_GT(result.egraph_enodes, result.initial_enodes);
}

TEST(Flows, EmorphicNeverMuchWorseThanBaselineOnDelay) {
  // SA is stochastic, but the e-graph contains (at least) the baseline
  // structure, so with the exact cost model the final mapped delay should
  // stay in the baseline's neighborhood.
  Aig sqrt_c = make_sqrt(8);
  FlowParams params = quick_params();
  params.verify = false;
  FlowResult base = Pipeline::baseline(params).run(sqrt_c, params);
  FlowResult em = Pipeline::emorphic(params).run(sqrt_c, params);
  EXPECT_LT(em.qor.delay, base.qor.delay * 1.25);
}

TEST(Flows, RuntimeBreakdownSumsToTotal) {
  Aig sin_c = make_sin(6);
  FlowParams params = quick_params();
  params.verify = false;
  FlowResult result = Pipeline::emorphic(params).run(sin_c, params);
  double sum = 0.0;
  for (const char* stage : {"ResynRounds", "TechMap", "EgraphConversion",
                            "Rewrite", "SaExtract"}) {
    sum += result.telemetry.seconds_for(stage);
  }
  EXPECT_NEAR(sum, result.qor.seconds, 0.25 * result.qor.seconds + 0.05);
}

TEST(Flows, MapEvaluatorCostIsDelayPlusWeightedArea) {
  MapQorEvaluator eval(CellLibrary::asap7_like(), 0.25);
  Aig adder = make_adder(6);
  Qor qor = eval.evaluate(adder);
  EXPECT_GT(qor.area, 0.0);
  EXPECT_DOUBLE_EQ(eval.cost(qor), qor.delay + 0.25 * qor.area);
  // Zero weight degenerates to the pure-delay objective.
  MapQorEvaluator delay_only(CellLibrary::asap7_like(), 0.0);
  EXPECT_DOUBLE_EQ(delay_only.cost(qor), qor.delay);
}

}  // namespace
}  // namespace emorphic
