#pragma once
// The windowed (partitioned) flow, the scaling mode for circuits too large
// for one e-graph: cut the circuit into fanin-cone windows
// (opt/partition.hpp), saturate and extract each window on the batch pool,
// adopt a window only if it is smaller and SAT-proven equivalent, and
// stitch. Seeds derive from the chunk index, never from scheduling, so the
// result is bit-identical at any thread count. Each chunk's results are
// appended to the "EMPC" checkpoint; a resumed run replays them and ends
// with the same netlist as a straight run (docs/architecture.md).

#include <atomic>
#include <cstdint>

#include "flow/pipeline.hpp"
#include "opt/partition.hpp"

namespace emorphic {

/// The run settings FlowParams does not carry.
struct PartitionParams {
  /// Base seed; per-chunk batch seeds derive from it deterministically.
  std::uint64_t seed = 1;
  /// Worker threads for the nested run_batch; 0 = hardware concurrency.
  /// Never affects results (the batch driver's determinism contract).
  unsigned num_threads = 0;
  /// Test seam: stop (with stats.completed == false) after freshly
  /// processing this many chunks; 0 = run to completion. Used to exercise
  /// the resume path deterministically.
  unsigned stop_after_chunks = 0;
  /// External cancellation, polled between chunks.
  std::atomic<bool>* cancel = nullptr;
};

struct PartitionResult {
  Aig optimized;
  PartitionStats stats;
};

/// The windowed flow of the file header. Reads `params.window_size`,
/// `rewrite` (match_threads forced to 1: the windows are the parallelism),
/// `fraig_post`/`fraig` (a per-window SAT sweep), `cec_params` (the window
/// gate, time_limit_s forced to 0 so adoption is deterministic; undecided
/// rejects) and `checkpoint_path` (empty: no checkpoint). Throws
/// SnapshotError for a mismatched checkpoint, std::invalid_argument for
/// window_size == 0.
PartitionResult partition_optimize(const Aig& input, const FlowParams& params,
                                   const PartitionParams& run = {});

}  // namespace emorphic
