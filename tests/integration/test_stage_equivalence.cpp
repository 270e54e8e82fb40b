// The repo's end-to-end functional-correctness gate: every registered
// pipeline stage, run on a spread of benchgen circuits and seeds, must
// produce an AIG that SAT-backed cec proves equivalent to its input — and
// so must every netlist a stage or prebuilt flow delivers.
//
// Each stage gets a minimal pipeline harness (some stages only make sense
// with a conversion prefix/suffix around them). The test fails loudly when
// a newly registered stage has no harness entry — adding a stage without
// adding it to this gate is not allowed.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "cec/cec.hpp"
#include "flow/pipeline.hpp"
#include "../test_helpers.hpp"

namespace emorphic {
namespace {

/// Stage name -> pipeline exercising that stage (with the minimal scaffold
/// it needs). The stage under test must appear in the pipeline.
std::map<std::string, Pipeline> stage_harnesses() {
  std::map<std::string, Pipeline> harness;
  {
    Pipeline p;
    p.add("ResynRounds");
    harness.emplace("ResynRounds", std::move(p));
  }
  {
    Pipeline p;
    p.add("EgraphConversion");  // forward: AIG -> e-graph
    p.add("EgraphConversion");  // backward: greedy extraction back to AIG
    harness.emplace("EgraphConversion", std::move(p));
  }
  {
    Pipeline p;
    p.add("EgraphConversion");
    p.add("Rewrite");
    p.add("EgraphConversion");
    harness.emplace("Rewrite", std::move(p));
  }
  {
    Pipeline p;
    p.add("EgraphConversion");
    p.add("Rewrite");
    p.add("SaExtract");
    p.add("EgraphConversion");
    harness.emplace("SaExtract", std::move(p));
  }
  {
    Pipeline p;
    p.add("TechMap");  // resynth-gated variant exercised via ResynRounds+TechMap in flows
    harness.emplace("TechMap", std::move(p));
  }
  {
    Pipeline p;
    p.add("Cec");
    harness.emplace("Cec", std::move(p));
  }
  {
    Pipeline p;
    p.add("fraig");
    harness.emplace("fraig", std::move(p));
  }
  {
    Pipeline p;
    p.add("EgraphConversion");
    p.add("Rewrite");
    p.add("SaExtract");
    p.add("choicemap");  // exports + maps across the verified choice rings
    harness.emplace("choicemap", std::move(p));
  }
  {
    Pipeline p;
    p.add("lutmap");  // plain k-LUT cover of ctx.current
    harness.emplace("lutmap", std::move(p));
  }
  {
    Pipeline p;
    // Windowed saturation + stitch (flow/partition_flow.hpp).
    p.add("partition");
    harness.emplace("partition", std::move(p));
  }
  return harness;
}

/// Small, fast parameters: the gate is about function preservation, not QoR.
FlowParams fast_params() {
  FlowParams params;
  params.rounds = 2;
  params.verify = false;  // the test does its own cec on final_aig
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 4000;
  params.rewrite.max_matches_per_rule = 400;
  params.sa.num_threads = 1;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 4;
  params.fraig.conflict_limit = 5000;
  // Small windows so the partition harness exercises real multi-window
  // stitching on the gate circuits (not one degenerate whole-circuit
  // window); the other stages ignore this knob.
  params.window_size = 25;
  return params;
}

std::vector<std::pair<std::string, Aig>> gate_circuits() {
  std::vector<std::pair<std::string, Aig>> circuits;
  circuits.emplace_back("adder5", make_adder(5));
  circuits.emplace_back("multiplier3", make_multiplier(3));
  circuits.emplace_back("arbiter4", make_arbiter(4));
  Rng rng(2024);
  circuits.emplace_back("random", testing::random_aig(6, 4, 60, rng));
  // Semantically constant nodes over an adder's inputs: mapped as tie
  // nets, which must keep their polarity. On top of the adder so the
  // partition harness still cuts several windows.
  Aig consts = make_adder(5);
  testing::add_semantic_constants(consts, make_lit(consts.pis()[0]),
                                  make_lit(consts.pis()[1]),
                                  make_lit(consts.pis()[2]));
  circuits.emplace_back("adder5_consts", std::move(consts));
  return circuits;
}

TEST(StageEquivalence, EveryRegisteredStageHasAHarness) {
  std::map<std::string, Pipeline> harness = stage_harnesses();
  for (const std::string& name : registered_stage_names()) {
    EXPECT_TRUE(harness.count(name) != 0)
        << "stage '" << name
        << "' is registered but has no entry in the stage-equivalence gate "
           "(tests/integration/test_stage_equivalence.cpp) — add one";
  }
}

TEST(StageEquivalence, EveryStagePreservesCircuitFunction) {
  std::map<std::string, Pipeline> harness = stage_harnesses();
  FlowParams params = fast_params();
  const std::vector<std::uint64_t> seeds{1, 7};

  for (auto& [circuit_name, aig] : gate_circuits()) {
    for (auto& [stage_name, pipeline] : harness) {
      for (std::uint64_t seed : seeds) {
        FlowContext ctx;
        ctx.params = params;
        ctx.input = aig;
        ctx.seed = seed;
        FlowResult result = pipeline.run(ctx);
        CecResult check = cec(aig, result.final_aig);
        ASSERT_EQ(check.status, CecStatus::kEquivalent)
            << "stage '" << stage_name << "' broke circuit '" << circuit_name
            << "' (seed " << seed << ")";
        // The cell netlist is what ships, not final_aig: prove it too
        // (ResynRounds, TechMap and choicemap leave one).
        if (result.netlist.has_value()) {
          ASSERT_EQ(cec(aig, result.netlist->to_aig()).status,
                    CecStatus::kEquivalent)
              << "stage '" << stage_name << "' mapped circuit '"
              << circuit_name << "' to a non-equivalent netlist (seed "
              << seed << ")";
        }
      }
    }
  }
}

TEST(StageEquivalence, PrebuiltFlowNetlistsAreEquivalentEndToEnd) {
  // The delivered product of the baseline and E-morphic flows is the cell
  // netlist; the flow's own Cec stage proves only final_aig.
  FlowParams params = fast_params();
  const std::map<std::string, Pipeline> flows{
      {"baseline", Pipeline::baseline(params)},
      {"emorphic", Pipeline::emorphic(params)}};
  for (auto& [circuit_name, aig] : gate_circuits()) {
    for (const auto& [flow, pipeline] : flows) {
      FlowResult result = pipeline.run(aig, params);
      ASSERT_TRUE(result.netlist.has_value()) << flow;
      ASSERT_EQ(cec(aig, result.netlist->to_aig()).status,
                CecStatus::kEquivalent)
          << flow << " flow shipped a non-equivalent netlist for '"
          << circuit_name << "'";
    }
  }
}

TEST(StageEquivalence, ChoicemapNetlistIsEquivalentEndToEnd) {
  // The generic gate above compares input vs. final_aig, but choicemap's
  // real product is the mapped netlist built across the choice rings —
  // final_aig is the plain extraction, which a broken choice cut or phase
  // would not perturb. Check the netlist itself, end to end.
  Pipeline p;
  p.add("EgraphConversion");
  p.add("Rewrite");
  p.add("SaExtract");
  p.add("choicemap");
  FlowParams params = fast_params();
  for (auto& [circuit_name, aig] : gate_circuits()) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}}) {
      FlowContext ctx;
      ctx.params = params;
      ctx.input = aig;
      ctx.seed = seed;
      FlowResult result = p.run(ctx);
      ASSERT_TRUE(result.netlist.has_value());
      ASSERT_EQ(cec(aig, result.netlist->to_aig()).status,
                CecStatus::kEquivalent)
          << "choicemap produced a non-equivalent netlist on '"
          << circuit_name << "' (seed " << seed << ")";
    }
  }
}

TEST(StageEquivalence, LutmapNetlistIsEquivalentEndToEnd) {
  // Same rationale as the choicemap netlist gate: lutmap's real product is
  // the LUT cover, so the gate proves the cover itself — re-expressed as
  // an AIG via MappedNetlist::to_aig — equivalent to the pipeline input, on
  // both the plain tail and the choice-aware tail.
  FlowParams params = fast_params();
  Pipeline plain;
  plain.add("lutmap");

  FlowParams choice_params = params;
  choice_params.use_choicemap = true;  // routes lutmap through the rings
  Pipeline choicy;
  choicy.add("EgraphConversion");
  choicy.add("Rewrite");
  choicy.add("SaExtract");
  choicy.add("lutmap");

  for (auto& [circuit_name, aig] : gate_circuits()) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}}) {
      for (bool choices : {false, true}) {
        FlowContext ctx;
        ctx.params = choices ? choice_params : params;
        ctx.input = aig;
        ctx.seed = seed;
        FlowResult result = (choices ? choicy : plain).run(ctx);
        ASSERT_TRUE(result.netlist.has_value());
        ASSERT_TRUE(result.netlist->is_lut())
            << "lutmap must leave its LUT cover, not a stale cell netlist";
        ASSERT_EQ(cec(aig, result.netlist->to_aig()).status,
                  CecStatus::kEquivalent)
            << "lutmap produced a non-equivalent cover on '" << circuit_name
            << "' (seed " << seed << ", choices=" << choices << ")";
      }
    }
  }
}

TEST(StageEquivalence, LutmapRejectsInvalidLutSizeAtTheGate) {
  // An unharnessed LUT size must fail loudly (std::invalid_argument from
  // map_to_luts), never silently clamp into a wrong-width cover.
  Pipeline p;
  p.add("lutmap");
  Aig aig = make_adder(4);
  for (unsigned bad : {1u, 7u}) {
    FlowParams params = fast_params();
    params.lut_size = bad;
    FlowContext ctx;
    ctx.params = params;
    ctx.input = aig;
    EXPECT_THROW(p.run(ctx), std::invalid_argument) << "lut_size=" << bad;
  }
}

TEST(StageEquivalence, LutmapPrebuiltFlowsStayEquivalent) {
  // The use_lutmap wiring of the prebuilt flows: baseline and emorphic
  // (with and without use_choicemap) must all end in an equivalent cover.
  Aig aig = make_adder(5);
  for (bool choicemap : {false, true}) {
    FlowParams params = fast_params();
    params.use_lutmap = true;
    params.use_choicemap = choicemap;
    for (const Pipeline& pipeline :
         {Pipeline::baseline(params), Pipeline::emorphic(params)}) {
      FlowResult result = pipeline.run(aig, params);
      ASSERT_TRUE(result.netlist.has_value());
      ASSERT_TRUE(result.netlist->is_lut());
      ASSERT_EQ(cec(aig, result.netlist->to_aig()).status,
                CecStatus::kEquivalent)
          << "use_choicemap=" << choicemap;
      ASSERT_EQ(cec(aig, result.final_aig).status, CecStatus::kEquivalent);
    }
  }
}

TEST(StageEquivalence, PartitionFlowStitchStaysEquivalent) {
  // The prebuilt partition-mode pipeline (fraig_pre + partition + Cec):
  // every gate circuit must stitch back SAT-provably equivalent, across
  // multiple windows.
  FlowParams params = fast_params();
  params.partition = true;
  params.window_size = 20;
  params.verify = true;
  for (auto& [circuit_name, aig] : gate_circuits()) {
    FlowResult result = Pipeline::emorphic(params).run(aig, params);
    ASSERT_TRUE(result.partition_stats.completed) << circuit_name;
    EXPECT_GT(result.partition_stats.num_windows, 1u) << circuit_name;
    ASSERT_EQ(result.verify_status, CecStatus::kEquivalent) << circuit_name;
    ASSERT_EQ(cec(aig, result.final_aig).status, CecStatus::kEquivalent)
        << "partition flow broke circuit '" << circuit_name << "'";
  }
}

TEST(StageEquivalence, FraigWiredFlowsStayEquivalent) {
  // The opt-in pre/post fraig placements in the prebuilt flows.
  FlowParams params = fast_params();
  params.fraig_pre = true;
  params.fraig_post = true;
  Aig aig = make_adder(5);
  for (const Pipeline& pipeline :
       {Pipeline::baseline(params), Pipeline::emorphic(params)}) {
    FlowResult result = pipeline.run(aig, params);
    ASSERT_EQ(cec(aig, result.final_aig).status, CecStatus::kEquivalent);
  }
}

}  // namespace
}  // namespace emorphic
