#pragma once
// The windowed (partitioned) flow, the scaling mode for circuits too large
// for one e-graph: cut the circuit into fanin-cone windows
// (opt/partition.hpp), run each window start to finish (saturate, extract,
// gate) as one worker-pool task, adopt a window only if it is smaller and
// SAT-proven equivalent, and stitch. Seeds derive from the chunk and window
// index, never from scheduling, so the result is bit-identical at any
// thread count. Each chunk's results are appended to the "EMPC" checkpoint;
// a resumed run replays them and ends with the same netlist as a straight
// run (docs/architecture.md).

#include "flow/pipeline.hpp"
#include "opt/partition.hpp"

namespace emorphic {

/// Test seams of the windowed flow; production passes the defaults.
struct PartitionParams {
  /// Worker threads of the window pool, capped at the windows of one chunk;
  /// 0 = hardware concurrency. Never affects results (seeds derive from the
  /// chunk and window index), which is what
  /// tests/flow/test_partition_flow.cpp pins by varying it.
  unsigned num_threads = 0;
  /// Stop (with stats.completed == false) after freshly processing this
  /// many chunks; 0 = run to completion. Used to exercise the resume path
  /// deterministically.
  unsigned stop_after_chunks = 0;
};

struct PartitionResult {
  Aig optimized;
  PartitionStats stats;
};

/// The windowed flow of the file header over `ctx.current`, configured by
/// `ctx.params`: `window_size`, `rewrite` (match_threads forced to 1: the
/// windows are the parallelism), `fraig_post`/`fraig` (a per-window SAT
/// sweep), `cec_params` (the window gate, time_limit_s forced to 0 so
/// adoption is deterministic; undecided rejects) and `checkpoint_path`
/// (empty: no checkpoint). Per-window seeds derive from `ctx.seed`, or
/// `params.sa.seed` when that is 0, and the chunk and window index. Every
/// window shares `ctx.cancel` and gets the caller's remaining time budget;
/// `ctx.should_stop()` is also polled before and after every chunk. A stop
/// leaves stats.completed false and discards the unfinished chunk. Throws
/// SnapshotError for a mismatched checkpoint, std::invalid_argument for
/// window_size == 0.
PartitionResult partition_optimize(const FlowContext& ctx,
                                   const PartitionParams& run = {});

}  // namespace emorphic
