#pragma once
// E-morphic public facade: one call that runs the whole pipeline of Fig. 5 —
// technology-independent optimization, direct DAG-to-DAG e-graph conversion,
// a few equality-saturation iterations, parallel simulated-annealing
// extraction under a pluggable cost model, final mapping, and equivalence
// checking.
//
// This header is also the library umbrella: including it pulls in every
// public subsystem.

#include "aig/aig.hpp"
#include "aig/aig_io.hpp"
#include "aig/signature.hpp"
#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/epfl.hpp"
#include "cec/cec.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "extract/sa_extractor.hpp"
#include "flow/conversion.hpp"
#include "flow/pipeline.hpp"
#include "mapper/genlib.hpp"
#include "mapper/tech_mapper.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "opt/resyn.hpp"

namespace emorphic {

/// Which cost model scores candidate extractions (Sec. III-C).
enum class CostModelMode {
  kQualityPrioritized,  // fast rough technology mapping (exact metric)
  kRuntimePrioritized,  // ML prediction (fast, approximate)
};

struct EmorphicOptions {
  /// The flow settings, in either mode. The SA chain count is
  /// flow.sa.num_threads: the paper compensates the runtime-prioritized
  /// mode's weaker cost signal with 6 chains instead of 4 (Sec. IV-A), so
  /// set it to 6 to reproduce that.
  FlowParams flow;
  CostModelMode mode = CostModelMode::kQualityPrioritized;
  /// Pre-trained model for runtime-prioritized mode. When null, a model is
  /// trained on the fly from structural variants of the input circuit
  /// (a miniature of the paper's OpenABC-D fine-tuning).
  const MlCostModel* ml_model = nullptr;
};

/// Run the full E-morphic flow, Pipeline::emorphic(options.flow), on
/// `input` under the cost model `options.mode` selects.
FlowResult optimize(const Aig& input, const EmorphicOptions& options = {});

/// Library version string.
const char* version();

}  // namespace emorphic
