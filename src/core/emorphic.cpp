#include "core/emorphic.hpp"

#include <optional>

namespace emorphic {

namespace {

/// Self-training for runtime-prioritized mode without a supplied model:
/// sample structural variants of the input, label them with the exact
/// mapper, and fit the MLP — the single-circuit analogue of Sec. IV-D's
/// OpenABC-D fine-tuning.
MlCostModel train_on_input(const Aig& input, const FlowParams& flow) {
  DatasetParams dp;
  dp.variants_per_circuit = 48;
  dp.rewrite.max_iterations = 3;
  dp.rewrite.max_enodes = 40000;
  dp.rewrite.time_limit_s = 5.0;
  dp.mapping.area_recovery = false;
  dp.mapping.num_cuts = 4;
  Dataset data = generate_variants(input, *flow.library, dp);

  MlpParams mp;
  mp.epochs = 120;
  MlCostModel model(mp);
  model.train(data.features, data.delays, data.areas);
  return model;
}

}  // namespace

FlowResult optimize(const Aig& input, const EmorphicOptions& options) {
  // Only the cost model depends on the mode; a null evaluator is the
  // quality-prioritized MapQorEvaluator.
  FlowContext ctx;
  ctx.params = options.flow;
  ctx.input = input;
  std::optional<MlCostModel> trained;
  if (options.mode == CostModelMode::kRuntimePrioritized) {
    ctx.evaluator = options.ml_model != nullptr
                        ? options.ml_model
                        : &trained.emplace(train_on_input(input, ctx.params));
  }
  return Pipeline::emorphic(ctx.params).run(ctx);
}

const char* version() { return "emorphic 1.0.0 (DAC'25 reproduction)"; }

}  // namespace emorphic
