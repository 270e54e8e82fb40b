#pragma once
// Batched multi-circuit driver: fan a set of circuits out over a worker
// pool, running the same Pipeline on each with a deterministic per-circuit
// seed. This is the serving seam for the production north star — one
// pipeline definition, many circuits, reproducible results regardless of
// how many workers happen to be available.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/warm_cache.hpp"

namespace emorphic {

struct BatchParams {
  /// Worker threads fanning circuits out; 0 = hardware concurrency. Inner
  /// SA and match threads (FlowParams::sa.num_threads,
  /// FlowParams::rewrite.match_threads) multiply with this, so batches of
  /// many circuits usually pair num_threads = cores with both at 1.
  unsigned num_threads = 0;
  /// Per-circuit seeds are derived deterministically from this
  /// (derive_seed(base_seed, circuit index), util/rng.hpp), so the same
  /// batch always produces the same FlowQor per circuit, whatever the
  /// worker count.
  std::uint64_t base_seed = 1;
  /// Shared cancellation flag for the whole batch (polled per stage/move).
  std::atomic<bool>* cancel = nullptr;
  /// Optional long-lived cache substrate (flow/warm_cache.hpp). When set,
  /// the batch reuses its shared matcher and cross-run QoR memo instead of
  /// building per-batch state, so consecutive batches (and the synthesis
  /// service, which shares the same object) start warm. Results are
  /// unchanged — see warm_cache.hpp for why sharing is sound. The batch
  /// driver never consults the flow-result cache layer.
  WarmCache* warm_cache = nullptr;
};

struct BatchResult {
  std::vector<FlowResult> results;  // one per input, in input order
  double seconds = 0.0;             // wall clock for the whole batch
};

/// Run `pipeline` on every circuit in `inputs` with shared `params`. The
/// observer (optional) receives events from all circuits concurrently and
/// must be thread-safe; FlowContext::batch_index identifies the circuit.
BatchResult run_batch(std::span<const Aig> inputs, const Pipeline& pipeline,
                      const FlowParams& params, const BatchParams& batch = {},
                      FlowObserver* observer = nullptr);

}  // namespace emorphic
