// Tests for the composable Pipeline API: stages and recipes by name (with the
// recipes' pinned stage lists and QoR), stage ordering and context
// threading, observer event counts, cancellation (between stages, mid-SA
// and after the last stage) and time budgets.

#include "flow/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include "../test_helpers.hpp"
#include "aig/signature.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/epfl.hpp"
#include "core/emorphic.hpp"  // optimize() facade
#include "util/checkpoint.hpp"  // fingerprint_fold

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  // Generous time limits: the determinism tests need limit-free runs.
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  params.cec_params.conflict_limit = 50000;
  return params;
}

/// Counts every observer event and records the stage sequence.
class CountingObserver : public FlowObserver {
 public:
  void on_flow_begin(const FlowContext&) override { ++flow_begin; }
  void on_flow_end(const FlowContext&) override { ++flow_end; }
  void on_stage_begin(const Stage& stage, const FlowContext&) override {
    ++stage_begin;
    order.emplace_back(stage.name());
  }
  void on_stage_end(const Stage&, const StageTelemetry& telemetry,
                    const FlowContext&) override {
    ++stage_end;
    telemetry_seconds += telemetry.seconds;
  }

  int flow_begin = 0, flow_end = 0, stage_begin = 0, stage_end = 0;
  double telemetry_seconds = 0.0;
  std::vector<std::string> order;
};

TEST(Pipeline, BuiltinStagesByName) {
  std::vector<std::string> names = builtin_stage_names();
  for (const char* expected :
       {"ResynRounds", "EgraphConversion", "Rewrite", "SaExtract", "TechMap",
        "Cec", "fraig", "choicemap", "choicemap-lut", "lutmap", "partition"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing built-in stage " << expected;
  }
  StagePtr stage = make_stage("Rewrite");
  ASSERT_NE(stage, nullptr);
  EXPECT_STREQ(stage->name(), "Rewrite");
  EXPECT_THROW(make_stage("NoSuchStage"), std::invalid_argument);
}

TEST(Pipeline, CustomStagesJoinAsInstances) {
  class NopStage : public Stage {
   public:
    const char* name() const override { return "Nop"; }
    void run(FlowContext&) const override {}
  };
  Pipeline pipeline;
  pipeline.add(std::make_unique<NopStage>()).add("TechMap");
  EXPECT_EQ(pipeline.stage_names(),
            (std::vector<std::string>{"Nop", "TechMap"}));
  FlowResult result = pipeline.run(make_adder(4), quick_params());
  EXPECT_GT(result.qor.area, 0.0);
}

TEST(Recipes, UnknownRecipeThrowsListingTheKnownOnes) {
  try {
    (void)Pipeline::recipe("no-such-recipe");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    for (const std::string& name : recipe_names()) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(Recipes, FactoriesAreRecipeAliases) {
  FlowParams params;
  EXPECT_EQ(Pipeline::baseline(params).stage_names(),
            Pipeline::recipe("baseline").stage_names());
  EXPECT_EQ(Pipeline::emorphic(params).stage_names(),
            Pipeline::recipe("emorphic").stage_names());
  params.partition = true;
  EXPECT_EQ(Pipeline::emorphic(params).stage_names(),
            Pipeline::recipe("partition").stage_names());
}

/// Fold a finished flow's QoR (without the wall-clock seconds), the
/// structure of its final AIG and its choice-verification SAT calls.
std::uint64_t flow_digest(const FlowResult& r) {
  auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  std::uint64_t h = 0;
  h = fingerprint_fold(h, bits(r.qor.area));
  h = fingerprint_fold(h, bits(r.qor.delay));
  h = fingerprint_fold(h, r.qor.lev);
  h = fingerprint_fold(h, structural_signature(r.final_aig));
  h = fingerprint_fold(h, r.choice_stats.verify_sat_calls);
  return h;
}

TEST(Recipes, GoldenStageListsAndQorDigests) {
  // Each recipe's stage list, and its digest on make_adder(5), equal what
  // the FlowParams flag combination it replaced built at the commit before
  // the recipe table (use_lutmap, use_choicemap, partition on
  // Pipeline::baseline/emorphic). The one intended difference: the
  // choice-aware LUT tail is now named "choicemap-lut" (it was "lutmap").
  // Three saturation iterations are what give adder5 a verified choice
  // ring, so the choice recipes run real ring SAT calls.
  const std::vector<std::string> kPrefix = {"ResynRounds", "EgraphConversion",
                                            "Rewrite", "SaExtract"};
  auto emorphic_with = [&](std::vector<std::string> tail) {
    std::vector<std::string> names = kPrefix;
    names.insert(names.end(), tail.begin(), tail.end());
    return names;
  };
  struct Golden {
    const char* recipe;
    std::vector<std::string> stages;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"baseline", {"ResynRounds", "TechMap"}, 0x6139191ff5f8af0aull},
      {"baseline-lut", {"ResynRounds", "lutmap"}, 0xfa05a25370673439ull},
      {"emorphic", emorphic_with({"EgraphConversion", "TechMap", "Cec"}),
       0xdaa6b62385d544fdull},
      {"emorphic-choice", emorphic_with({"choicemap", "Cec"}),
       0xf2341329ba4a3d4cull},
      {"emorphic-lut", emorphic_with({"EgraphConversion", "lutmap", "Cec"}),
       0x57aa57e999dde966ull},
      {"emorphic-choice-lut", emorphic_with({"choicemap-lut", "Cec"}),
       0xcb08ebfdc6e04c47ull},
      {"partition", {"partition", "Cec"}, 0xb7d1a52af711ceaaull},
  };
  std::vector<std::string> pinned;
  for (const Golden& g : kGolden) pinned.emplace_back(g.recipe);
  EXPECT_EQ(recipe_names(), pinned);

  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;  // no wall-clock stop
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 4;
  params.window_size = 25;  // several partition windows
  const Aig input = make_adder(5);
  for (const Golden& g : kGolden) {
    Pipeline pipeline = Pipeline::recipe(g.recipe);
    EXPECT_EQ(pipeline.stage_names(), g.stages) << g.recipe;
    FlowResult result = pipeline.run(input, params);
    EXPECT_EQ(flow_digest(result), g.digest)
        << g.recipe << ": 0x" << std::hex << flow_digest(result);
  }
}

TEST(Pipeline, StageOrderingAndContextThreading) {
  // A hand-assembled pipeline without ResynRounds or SaExtract: conversion
  // forward, rewriting, conversion backward (greedy fallback), mapping.
  Pipeline pipeline;
  pipeline.add("EgraphConversion")
      .add("Rewrite")
      .add("EgraphConversion")
      .add("TechMap");
  EXPECT_EQ(pipeline.size(), 4u);

  Aig adder = make_adder(6);
  CountingObserver observer;
  FlowResult result = pipeline.run(adder, quick_params(), &observer);

  std::vector<std::string> expected{"EgraphConversion", "Rewrite",
                                    "EgraphConversion", "TechMap"};
  EXPECT_EQ(observer.order, expected);
  ASSERT_EQ(result.telemetry.stages.size(), 4u);
  EXPECT_EQ(result.telemetry.stages[1].name, "Rewrite");
  EXPECT_EQ(result.telemetry.stages[1].index, 1u);

  // Context threading: the forward conversion fed the rewriter, the
  // backward conversion fed the mapper, and the function was preserved.
  EXPECT_GT(result.initial_enodes, 0u);
  EXPECT_GE(result.egraph_enodes, result.initial_enodes);
  EXPECT_GT(result.qor.area, 0.0);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_TRUE(testing::functionally_equal(adder, result.final_aig));
  EXPECT_FALSE(result.cancelled);
}

TEST(Pipeline, StagesValidateTheirInputs) {
  // Rewrite and SaExtract need an e-graph in the context.
  FlowParams params = quick_params();
  Aig adder = make_adder(4);
  EXPECT_THROW(Pipeline().add("Rewrite").run(adder, params),
               std::runtime_error);
  EXPECT_THROW(Pipeline().add("SaExtract").run(adder, params),
               std::runtime_error);
}

TEST(Pipeline, ObserverEventCounts) {
  CountingObserver observer;
  FlowResult result =
      Pipeline::emorphic().run(make_arbiter(6), quick_params(), &observer);

  EXPECT_EQ(observer.flow_begin, 1);
  EXPECT_EQ(observer.flow_end, 1);
  // The emorphic pipeline has 7 stages (EgraphConversion appears twice).
  EXPECT_EQ(observer.stage_begin, 7);
  EXPECT_EQ(observer.stage_end, 7);
  EXPECT_FALSE(result.sa.trace.empty());
  // Observer-visible stage telemetry covers the optimization time.
  EXPECT_GE(observer.telemetry_seconds, result.qor.seconds);
}

TEST(Pipeline, TelemetryMatchesBreakdownBuckets) {
  // The Fig. 9 buckets: with verify off, the optimization time is exactly
  // the sum of the five non-Cec stage kinds.
  FlowResult result = Pipeline::emorphic().run(make_adder(6), quick_params());
  double sum = 0.0;
  for (const char* stage : {"ResynRounds", "TechMap", "EgraphConversion",
                            "Rewrite", "SaExtract"}) {
    EXPECT_GT(result.telemetry.seconds_for(stage), 0.0) << stage;
    sum += result.telemetry.seconds_for(stage);
  }
  EXPECT_DOUBLE_EQ(sum, result.qor.seconds);
}

TEST(Pipeline, CancellationBetweenStages) {
  // Cancel as soon as the Rewrite stage finishes: SA, mapping, and CEC must
  // never run.
  class CancelAfterRewrite : public CountingObserver {
   public:
    explicit CancelAfterRewrite(std::atomic<bool>* flag) : flag_(flag) {}
    void on_stage_end(const Stage& stage, const StageTelemetry& telemetry,
                      const FlowContext& ctx) override {
      CountingObserver::on_stage_end(stage, telemetry, ctx);
      if (std::string_view(stage.name()) == "Rewrite") flag_->store(true);
    }

   private:
    std::atomic<bool>* flag_;
  };

  std::atomic<bool> cancel{false};
  CancelAfterRewrite observer(&cancel);
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(6);
  ctx.observer = &observer;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::emorphic().run(ctx);

  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_EQ(observer.stage_begin, 3);  // ResynRounds, EgraphConversion, Rewrite
  EXPECT_TRUE(result.sa.trace.empty());
  EXPECT_EQ(result.qor.area, 0.0);  // TechMap never ran
  EXPECT_EQ(observer.flow_end, 1);  // the flow still ends cleanly
}

TEST(Pipeline, CancellationMidSaExtract) {
  // Cancel from inside the SA stage: the first QoR evaluation sets the
  // flag, so every chain stops at its next move.
  class CancelOnFirstEvaluation : public QorEvaluator {
   public:
    explicit CancelOnFirstEvaluation(std::atomic<bool>* flag) : flag_(flag) {}
    Qor evaluate(const Aig& candidate) const override {
      flag_->store(true);
      return Qor{static_cast<double>(candidate.num_ands()),
                 static_cast<double>(candidate.num_levels())};
    }

   private:
    std::atomic<bool>* flag_;
  };

  FlowParams params = quick_params();
  params.sa.num_threads = 2;
  params.sa.iterations = 4;
  params.sa.moves_per_iteration = 4;
  const int full_moves = 2 * 4 * 4;

  std::atomic<bool> cancel{false};
  CancelOnFirstEvaluation evaluator(&cancel);
  FlowContext ctx;
  ctx.params = params;
  ctx.input = make_arbiter(6);
  ctx.evaluator = &evaluator;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::emorphic().run(ctx);

  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_LT(static_cast<int>(result.sa.trace.size()), full_moves);
  // A cancelled SA still reports its best-so-far solution.
  EXPECT_GT(result.sa.evaluations, 0u);
}

TEST(Pipeline, TimeBudgetStopsImmediately) {
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(6);
  ctx.time_budget_s = 1e-9;
  FlowResult result = Pipeline::emorphic().run(ctx);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kDeadline);
  EXPECT_TRUE(result.telemetry.stages.empty());
}

TEST(Pipeline, BudgetExpiryDuringFinalStageReportsDeadline) {
  // Regression: a budget that fires *inside the last stage* used to be
  // indistinguishable from a clean completion — no stage is skipped, so
  // `cancelled` stays false. stop_reason must still say kDeadline.
  class PollUntilStopped : public Stage {
   public:
    const char* name() const override { return "PollUntilStopped"; }
    void run(FlowContext& ctx) const override {
      for (int i = 0; i < 5000; ++i) {
        if (ctx.should_stop()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  Pipeline pipeline;
  pipeline.add(std::make_unique<PollUntilStopped>());
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(4);
  ctx.time_budget_s = 0.05;  // fires while the single (= final) stage runs
  FlowResult result = pipeline.run(ctx);

  EXPECT_FALSE(result.cancelled);  // every stage executed
  EXPECT_EQ(result.stop_reason, FlowStopReason::kDeadline);
  EXPECT_EQ(result.telemetry.stages.size(), 1u);
}

TEST(Pipeline, CancelDuringANonPollingFinalStageIsRecorded) {
  // A stage that never polls (like TechMap) leaves a stop fired during it to
  // the poll after the last stage: stop_reason records it, and `cancelled`
  // stays false because no stage was skipped.
  class CancelWithoutPolling : public Stage {
   public:
    const char* name() const override { return "CancelWithoutPolling"; }
    void run(FlowContext& ctx) const override { ctx.cancel->store(true); }
  };

  Pipeline pipeline;
  pipeline.add(std::make_unique<CancelWithoutPolling>());
  std::atomic<bool> cancel{false};
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(4);
  ctx.cancel = &cancel;
  FlowResult result = pipeline.run(ctx);

  EXPECT_FALSE(result.cancelled);  // every stage executed
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
}

/// Replaces ctx.current with its dch resynthesis: a structurally distinct,
/// equivalent circuit for the Cec stage to prove.
class DchStage : public Stage {
 public:
  const char* name() const override { return "Dch"; }
  void run(FlowContext& ctx) const override {
    ctx.current = dch_substitute(ctx.input);
    ctx.netlist.reset();
  }
};

Pipeline dch_then_cec() {
  Pipeline pipeline;
  pipeline.add(std::make_unique<DchStage>());
  pipeline.add(make_stage("Cec"));
  return pipeline;
}

TEST(Pipeline, CecStageReportsTheSolverCounters) {
  FlowParams params = quick_params();
  params.verify = true;
  FlowResult result = dch_then_cec().run(make_epfl("sin"), params);
  ASSERT_EQ(result.verify_status, CecStatus::kEquivalent);
  CecResult direct = cec(make_epfl("sin"), result.final_aig, params.cec_params);
  EXPECT_GT(result.verify_solver.conflicts, 0u);  // SAT, not simulation
  EXPECT_EQ(result.verify_solver, direct.solver);
}

TEST(Pipeline, CancelAtCecStartEndsTheProofWithinOnePoll) {
  // The multiplier miter needs far more than one poll interval of
  // conflicts; a cancel fired as Cec begins must end the proof at the
  // first poll, counted in conflicts rather than seconds.
  class CancelAtCec : public FlowObserver {
   public:
    explicit CancelAtCec(std::atomic<bool>* flag) : flag_(flag) {}
    void on_stage_begin(const Stage& stage, const FlowContext&) override {
      if (std::string_view(stage.name()) == "Cec") flag_->store(true);
    }

   private:
    std::atomic<bool>* flag_;
  };

  std::atomic<bool> cancel{false};
  CancelAtCec observer(&cancel);
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.params.verify = true;
  ctx.input = make_epfl("multiplier");
  ctx.observer = &observer;
  ctx.cancel = &cancel;
  FlowResult result = dch_then_cec().run(ctx);

  EXPECT_FALSE(result.cancelled);  // every stage executed
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_EQ(result.verify_status, CecStatus::kUndecided);
  EXPECT_GT(result.verify_solver.conflicts, 0u);
  EXPECT_LE(result.verify_solver.conflicts, sat::Solver::kStopPollConflicts);
}

TEST(Pipeline, StopReasonResetsBetweenRuns) {
  // A context that was cancelled once must not leak the stale reason into
  // its next, untroubled run.
  std::atomic<bool> cancel{true};
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(4);
  ctx.cancel = &cancel;
  FlowResult stopped = Pipeline::emorphic().run(ctx);
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_EQ(stopped.stop_reason, FlowStopReason::kCancelled);

  cancel.store(false);
  FlowResult clean = Pipeline::emorphic().run(ctx);
  EXPECT_FALSE(clean.cancelled);
  EXPECT_EQ(clean.stop_reason, FlowStopReason::kNone);
  EXPECT_STREQ(to_string(clean.stop_reason), "none");
}

TEST(Pipeline, ContextIsReusableAcrossRuns) {
  // take_result moves the results out, but run() re-initializes all working
  // state, so one configured context can drive several runs.
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(5);
  Pipeline pipeline = Pipeline::emorphic();
  FlowResult first = pipeline.run(ctx);
  FlowResult second = pipeline.run(ctx);
  EXPECT_GT(second.qor.area, 0.0);
  EXPECT_DOUBLE_EQ(first.qor.area, second.qor.area);
  EXPECT_DOUBLE_EQ(first.qor.delay, second.qor.delay);
  EXPECT_TRUE(testing::functionally_equal(ctx.input, second.final_aig));
  EXPECT_FALSE(second.cancelled);
}

TEST(Pipeline, BaselinePipelineMatchesLegacyShape) {
  Aig mult = make_multiplier(6);
  FlowResult result = Pipeline::baseline().run(mult, quick_params());
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_TRUE(testing::functionally_equal(mult, result.netlist->to_aig()));
  // The baseline pipeline never touches the e-graph machinery.
  EXPECT_EQ(result.initial_enodes, 0u);
  EXPECT_TRUE(result.sa.trace.empty());
}

TEST(Optimize, ReturnsTheWholeFlowResult) {
  // optimize() runs Pipeline::emorphic(options.flow) and hands back its
  // FlowResult unabridged: the cover, telemetry and stop state too.
  EmorphicOptions options;
  options.flow = quick_params();
  FlowResult result = optimize(make_adder(5), options);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_EQ(result.telemetry.stages.size(),
            Pipeline::emorphic(options.flow).size());
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kNone);
}

TEST(Pipeline, TechMapAfterLutmapRemapsToCells) {
  // lutmap leaves its LUT cover in ctx.netlist but marks it not current, so
  // a later TechMap maps ctx.current onto cells instead of reusing it.
  Pipeline pipeline;
  pipeline.add("lutmap");
  pipeline.add("TechMap");
  FlowResult result = pipeline.run(make_adder(4), quick_params());
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_FALSE(result.netlist->is_lut());
  EXPECT_DOUBLE_EQ(result.qor.area, result.netlist->area());
}

TEST(Optimize, RuntimePrioritizedHonorsConfiguredSaThreads) {
  // A minimally-trained model: the facade only needs evaluate() to work.
  std::vector<FeatureVector> features;
  std::vector<double> delays, areas;
  for (unsigned bits : {3u, 4u, 5u}) {
    features.push_back(extract_features(make_adder(bits)));
    delays.push_back(10.0 * bits);
    areas.push_back(1.0 * bits);
  }
  MlpParams mp;
  mp.epochs = 2;
  MlCostModel model(mp);
  model.train(features, delays, areas);

  EmorphicOptions options;
  options.mode = CostModelMode::kRuntimePrioritized;
  options.ml_model = &model;
  options.flow = quick_params();
  options.flow.sa.num_threads = 2;

  // Default: flow.sa.num_threads is honored (no silent bump to 6).
  FlowResult honored = optimize(make_adder(5), options);
  unsigned max_thread = 0;
  ASSERT_FALSE(honored.sa.trace.empty());
  for (const SaTracePoint& pt : honored.sa.trace) {
    max_thread = std::max(max_thread, pt.thread);
  }
  EXPECT_LT(max_thread, 2u);

  // The paper's bump is the same setting raised.
  options.flow.sa.num_threads = 3;
  FlowResult bumped = optimize(make_adder(5), options);
  max_thread = 0;
  for (const SaTracePoint& pt : bumped.sa.trace) {
    max_thread = std::max(max_thread, pt.thread);
  }
  EXPECT_EQ(max_thread, 2u);  // chains 0..2 ran
}

}  // namespace
}  // namespace emorphic
