// Choice export (flow/choice_export.hpp) and the "choicemap" stage:
//  * exporting a rewritten e-graph yields a check()-clean annotation with
//    real rings, and mapping across it preserves the circuit function;
//  * a ring member that is NOT equivalent to its representative (injected
//    through an unsound e-graph merge) must be rejected by the export's
//    SAT verification;
//  * choice-aware mapping of a choice-free AIG reproduces plain
//    map_to_cells exactly (bit-identical netlist);
//  * the stage slots into pipelines and the "emorphic-choice" recipe
//    stays cec-equivalent end to end.

#include "flow/choice_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "cec/cec.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/batch.hpp"
#include "flow/pipeline.hpp"

namespace emorphic {
namespace {

/// A small rewritten e-graph with real structural diversity per class.
CircuitEGraph rewritten_egraph(const Aig& aig) {
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams params;
  params.max_iterations = 3;
  params.max_enodes = 20000;
  params.max_matches_per_rule = 2000;
  run_rewriting(ce.egraph, make_logic_rules(), params);
  return ce;
}

TEST(ChoiceExport, RewrittenAdderExportsVerifiedRings) {
  Aig aig = make_adder(6);
  CircuitEGraph ce = rewritten_egraph(aig);
  Extraction solution = greedy_extract(ce.egraph, CostModel{CostKind::kDepth});

  ChoiceExportStats stats;
  ChoiceAig caig = egraph_to_choice_aig(ce, solution, {}, &stats);
  EXPECT_EQ(caig.choices.check(caig.aig), "");
  EXPECT_GT(stats.cone_classes, 0u);
  // Saturation on an adder produces real alternatives (XOR/OR variants).
  EXPECT_GT(stats.alts_kept, 0u);
  EXPECT_EQ(stats.alts_kept, caig.choices.num_alts());
  EXPECT_EQ(stats.classes_with_choices, caig.choices.num_rings());

  // The exported PO cones are the plain extraction (same function).
  Aig plain = egraph_to_aig(ce, solution);
  EXPECT_EQ(cec(aig, plain).status, CecStatus::kEquivalent);
  EXPECT_EQ(cec(aig, caig.aig).status, CecStatus::kEquivalent);

  // Mapping across the variants preserves the function.
  Matcher matcher(CellLibrary::asap7_like());
  MappedNetlist netlist = map_to_cells(caig, matcher);
  EXPECT_EQ(cec(aig, netlist.to_aig()).status, CecStatus::kEquivalent);
}

TEST(ChoiceExport, InequivalentRingMemberIsRejected) {
  // An unsound merge puts or(a,b) into the and(a,b) class. The chosen
  // extraction lowers one member; the other becomes a candidate ring
  // member that is NOT equivalent — verification must reject it.
  EGraph egraph;
  EClassId a = egraph.add_var(0);
  EClassId b = egraph.add_var(1);
  EClassId and_ab = egraph.add_and(a, b);
  EClassId or_ab = egraph.add_or(a, b);
  egraph.merge(and_ab, or_ab);
  egraph.rebuild();

  CircuitEGraph ce;
  ce.egraph = std::move(egraph);
  ce.pi_names = {"a", "b"};
  SerializedRoot root;
  root.id = and_ab;
  root.name = "f";
  ce.roots.push_back(root);

  Extraction solution = greedy_extract(ce.egraph, CostModel{CostKind::kSize});

  ChoiceExportStats stats;
  ChoiceAig verified = egraph_to_choice_aig(ce, solution, {}, &stats);
  EXPECT_GE(stats.alts_rejected, 1u);
  EXPECT_EQ(stats.alts_kept, 0u);
  EXPECT_EQ(verified.choices.num_rings(), 0u);
}

TEST(ChoiceExport, ChoiceFreeMappingReproducesPlainMappingExactly) {
  // On an annotation without rings the choice-aware overload must be
  // bit-identical to plain map_to_cells — same gates, same nets, same
  // names — not merely QoR-equal.
  Matcher matcher(CellLibrary::asap7_like());
  Rng rng(321);
  for (const Aig& aig :
       {make_adder(8), make_multiplier(4), testing::random_aig(7, 4, 80, rng)}) {
    MappedNetlist plain = map_to_cells(aig, matcher);
    MappedNetlist via_choices = map_to_cells(ChoiceAig::from_plain(aig), matcher);
    EXPECT_EQ(plain.to_blif("m"), via_choices.to_blif("m"));
    EXPECT_EQ(plain.area(), via_choices.area());
    EXPECT_EQ(plain.delay(), via_choices.delay());
  }
}

TEST(ChoiceExport, GatedCoverNeverWorseAndSometimesSmaller) {
  // One committed extraction mapped twice on the same e-graph: plainly
  // (ring_cap = 0 exports the bare cone) and across the verified rings.
  // Every cover is proven. The gated cover the choicemap stage ships is
  // never worse than plain, and strictly smaller in area somewhere.
  Aig circuits[] = {make_adder(8), make_adder(16), make_multiplier(4),
                    make_square(5), make_arbiter(4)};
  Matcher matcher(CellLibrary::asap7_like());
  bool any_smaller = false;
  bool any_rings = false;
  for (const Aig& aig : circuits) {
    CircuitEGraph ce = aig_to_egraph(aig);
    RunnerParams params;
    params.max_iterations = 4;
    params.max_enodes = 30000;
    params.max_matches_per_rule = 5000;
    params.time_limit_s = 1e9;
    run_rewriting(ce.egraph, make_logic_rules(), params);
    Extraction solution =
        greedy_extract(ce.egraph, CostModel{CostKind::kDepth});
    ChoiceExportParams no_choices;
    no_choices.ring_cap = 0;
    MappedNetlist plain = map_to_cells(
        egraph_to_choice_aig(ce, solution, no_choices).aig, matcher);
    ChoiceAig caig = egraph_to_choice_aig(ce, solution);
    MappedNetlist raw = map_to_cells(caig, matcher);
    MappedNetlist gated = map_with_choices_gated(caig, matcher).netlist;

    EXPECT_EQ(cec(aig, plain.to_aig()).status, CecStatus::kEquivalent);
    EXPECT_EQ(cec(aig, raw.to_aig()).status, CecStatus::kEquivalent);
    EXPECT_EQ(cec(aig, gated.to_aig()).status, CecStatus::kEquivalent);
    EXPECT_LE(gated.area(), plain.area() + 1e-9);
    EXPECT_LE(gated.delay(), plain.delay() + 1e-9);
    any_smaller = any_smaller || gated.area() < plain.area() - 1e-9;
    any_rings = any_rings || caig.choices.num_alts() > 0;
  }
  EXPECT_TRUE(any_smaller);
  EXPECT_TRUE(any_rings);
}

TEST(ChoicemapStage, BuiltinAndRunsInAPipeline) {
  std::vector<std::string> builtin = builtin_stage_names();
  EXPECT_NE(std::find(builtin.begin(), builtin.end(), "choicemap"),
            builtin.end());

  Pipeline p;
  p.add("EgraphConversion").add("Rewrite").add("SaExtract").add("choicemap");

  FlowParams params;
  params.verify = false;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.sa.num_threads = 1;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 4;

  Aig aig = make_adder(5);
  FlowResult result = p.run(aig, params);
  EXPECT_EQ(cec(aig, result.final_aig).status, CecStatus::kEquivalent);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_EQ(cec(aig, result.netlist->to_aig()).status, CecStatus::kEquivalent);
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  EXPECT_GT(result.choice_stats.cone_classes, 0u);
}

TEST(ChoicemapStage, StageWithoutEgraphThrows) {
  FlowParams params;
  for (const char* stage : {"choicemap", "choicemap-lut"}) {
    Pipeline p;
    p.add(stage);
    EXPECT_THROW(p.run(make_adder(3), params), std::runtime_error) << stage;
  }
}

TEST(ChoicemapStage, EmorphicFlowWithChoicemapVerifies) {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.sa.num_threads = 1;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 4;

  Pipeline pipeline = Pipeline::recipe("emorphic-choice");
  std::vector<std::string> names = pipeline.stage_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "choicemap"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "TechMap"), names.end());

  Aig aig = make_adder(5);
  FlowResult result = pipeline.run(aig, params);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_EQ(cec(aig, result.netlist->to_aig()).status, CecStatus::kEquivalent);
}

TEST(ChoicemapStage, BatchRunsChoicemapDeterministically) {
  FlowParams params;
  params.verify = false;
  params.rounds = 1;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 6000;
  params.sa.num_threads = 1;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 3;

  std::vector<Aig> circuits;
  circuits.push_back(make_adder(4));
  circuits.push_back(make_multiplier(3));

  BatchParams batch;
  batch.num_threads = 2;
  const Pipeline pipeline = Pipeline::recipe("emorphic-choice");
  BatchResult first = run_batch(circuits, pipeline, params, batch);
  batch.num_threads = 1;
  BatchResult second = run_batch(circuits, pipeline, params, batch);
  ASSERT_EQ(first.results.size(), 2u);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_EQ(cec(circuits[i], first.results[i].final_aig).status,
              CecStatus::kEquivalent);
    EXPECT_EQ(first.results[i].qor.area, second.results[i].qor.area);
    EXPECT_EQ(first.results[i].qor.delay, second.results[i].qor.delay);
  }
}

}  // namespace
}  // namespace emorphic
