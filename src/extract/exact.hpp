#pragma once
// Exact e-graph extraction by exhaustive enumeration — exponential, usable
// only on small graphs, and deliberately so: extraction is NP-hard [18],
// and this oracle exists to *measure* how close the practical extractors
// (greedy, SA) get to the optimum (tests and the extraction-quality
// ablation), not to be used in the flow.

#include <cstdint>
#include <optional>

#include "extract/extractor.hpp"

namespace emorphic {

/// Configuration of the exhaustive extraction oracle.
struct ExactParams {
  /// Cost model to minimize.
  CostModel cost{CostKind::kSize};
  /// Give up (return nullopt) when the full assignment space exceeds this.
  std::uint64_t max_combinations = 1u << 22;
};

/// Globally optimal extraction under the cost model, or nullopt when the
/// search space exceeds params.max_combinations.
std::optional<Extraction> exact_extract(const EGraph& egraph,
                                        const std::vector<SerializedRoot>& roots,
                                        const ExactParams& params = {});

}  // namespace emorphic
