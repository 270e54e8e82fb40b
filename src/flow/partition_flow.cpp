#include "flow/partition_flow.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aig/aig_io.hpp"
#include "aig/signature.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace emorphic {

namespace {

/// Windows per checkpoint chunk. Fixed (never configuration-derived): the
/// chunk boundaries define the checkpoint record layout and the per-chunk
/// seed derivation, so changing this constant invalidates old checkpoints
/// (caught by the fingerprint, which folds it in).
constexpr std::size_t kChunkWindows = 16;

constexpr char kCheckpointMagic[4] = {'E', 'M', 'P', 'C'};

// Window result status codes stored in checkpoint records.
constexpr std::uint8_t kRejectedQor = 0;
constexpr std::uint8_t kAdopted = 1;
constexpr std::uint8_t kRejectedCec = 2;

/// Everything the recorded window results depend on: the circuit, the
/// decomposition, the seeds and the inner optimization effort. A checkpoint
/// whose fingerprint disagrees was taken under a different run and must not
/// be stitched into this one.
std::uint64_t checkpoint_fingerprint(const Aig& input,
                                     const FlowParams& params,
                                     std::uint64_t seed,
                                     std::size_t num_windows) {
  std::uint64_t h = structural_signature(input);
  h = fingerprint_fold(h, params.window_size);
  h = fingerprint_fold(h, seed);
  h = fingerprint_fold(h, params.rewrite.max_iterations);
  h = fingerprint_fold(h, params.rewrite.max_enodes);
  h = fingerprint_fold(h, params.rewrite.max_matches_per_rule);
  h = fingerprint_fold(h, params.fraig_post ? 1 : 0);
  h = fingerprint_fold(h, params.cec_params.conflict_limit);
  h = fingerprint_fold(h, num_windows);
  h = fingerprint_fold(h, kChunkWindows);
  return h;
}

/// Parse an existing checkpoint file, or start one. Returns the number of
/// complete chunk records; fills status/adopted for the windows they cover
/// (and maybe part of a torn last chunk, which the caller recomputes). A
/// torn tail is truncated away; a header of another run throws.
std::size_t load_checkpoint(const std::string& path, std::uint64_t fingerprint,
                            std::size_t num_windows,
                            std::vector<std::uint8_t>& status,
                            std::vector<std::optional<Aig>>& adopted) {
  std::optional<std::string> body = read_checkpoint(
      path, kCheckpointMagic, "partition checkpoint", fingerprint);
  if (!body.has_value()) {
    SnapshotWriter window_count;
    window_count.varint(num_windows);
    replace_checkpoint(path, kCheckpointMagic, fingerprint,
                       window_count.str());
    return 0;
  }
  const std::string& data = *body;
  SnapshotReader r(data);
  if (r.varint("window count") != num_windows) {
    throw SnapshotError("partition checkpoint window count mismatch");
  }

  const std::size_t num_chunks =
      (num_windows + kChunkWindows - 1) / kChunkWindows;
  std::size_t chunks = 0;
  std::size_t valid_prefix = data.size() - r.remaining();
  while (!r.at_end() && chunks < num_chunks) {
    try {
      if (r.varint("chunk index") != chunks) {
        throw SnapshotError("partition checkpoint chunks out of order");
      }
      std::size_t lo = chunks * kChunkWindows;
      std::size_t hi = std::min(lo + kChunkWindows, num_windows);
      if (r.varint("chunk window count") != hi - lo) {
        throw SnapshotError("partition checkpoint chunk size mismatch");
      }
      for (std::size_t i = lo; i < hi; ++i) {
        if (r.varint("window id") != i) {
          throw SnapshotError("partition checkpoint window ids out of order");
        }
        std::uint8_t s = r.u8("window status");
        if (s > kRejectedCec) {
          throw SnapshotError("partition checkpoint has unknown status code " +
                              std::to_string(s));
        }
        status[i] = s;
        if (s == kAdopted) {
          std::uint64_t len = r.varint("window byte length");
          adopted[i] = read_aiger_binary(r.bytes(len, "window circuit"));
        }
      }
    } catch (const std::runtime_error&) {
      break;  // torn tail: the caller recomputes this chunk in full
    }
    ++chunks;
    valid_prefix = data.size() - r.remaining();
  }
  if (valid_prefix < data.size()) {
    replace_checkpoint(path, kCheckpointMagic, fingerprint,
                       data.substr(0, valid_prefix));
  }
  return chunks;
}

}  // namespace

PartitionResult partition_optimize(const FlowContext& ctx,
                                   const PartitionParams& run) {
  const Aig& input = ctx.current;
  const FlowParams& params = ctx.params;
  const std::uint64_t seed = ctx.seed != 0 ? ctx.seed : params.sa.seed;
  PartitionResult out;
  PartitionStats& st = out.stats;
  st.ands_before = input.num_ands();

  std::vector<Window> windows =
      build_windows(input, assign_windows(input, params.window_size));
  st.num_windows = windows.size();
  const std::size_t num_chunks =
      (windows.size() + kChunkWindows - 1) / kChunkWindows;
  st.chunks_total = num_chunks;

  std::vector<std::uint8_t> status(windows.size(), kRejectedQor);
  std::vector<std::optional<Aig>> adopted(windows.size());

  std::size_t done_chunks = 0;
  if (!params.checkpoint_path.empty()) {
    done_chunks = load_checkpoint(
        params.checkpoint_path,
        checkpoint_fingerprint(input, params, seed, windows.size()),
        windows.size(), status, adopted);
    st.chunks_resumed = done_chunks;
  }

  Pipeline window_pipeline;
  window_pipeline.add(std::make_unique<EgraphConversionStage>());  // forward
  window_pipeline.add(std::make_unique<RewriteStage>());
  window_pipeline.add(std::make_unique<EgraphConversionStage>());  // greedy
  if (params.fraig_post) window_pipeline.add(std::make_unique<FraigStage>());
  // The windows are the parallelism; inner match threads would multiply
  // with the pool's.
  FlowParams window_params = params;
  window_params.rewrite.match_threads = 1;

  unsigned workers = run.num_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  // lint:allow(thread-in-library) PartitionParams::num_threads
  ThreadPool pool(std::min<std::size_t>(workers, kChunkWindows));

  std::size_t fresh_chunks = 0;
  for (std::size_t c = done_chunks; c < num_chunks; ++c) {
    // An early stop leaves completed false; the checkpoint holds progress.
    if (ctx.should_stop()) return out;
    if (run.stop_after_chunks != 0 && fresh_chunks >= run.stop_after_chunks) {
      return out;
    }
    const std::size_t lo = c * kChunkWindows;
    const std::size_t hi = std::min(lo + kChunkWindows, windows.size());
    // One task per window, start to finish; each writes only its own
    // status, adopted and record entry slots.
    std::vector<std::string> entries(hi - lo);
    pool.parallel_for(hi - lo, [&](std::size_t k) {
      const std::size_t i = lo + k;
      if (ctx.should_stop()) return;  // the chunk is discarded below
      FlowContext wctx;
      wctx.params = window_params;
      wctx.input = extract_window(input, windows[i]);
      wctx.seed = derive_seed(derive_seed(seed, c), k);
      wctx.cancel = ctx.cancel;
      // The caller's remaining budget: a window's deadline never falls
      // before the caller's, so a window stopped by it is always in a
      // discarded chunk.
      if (ctx.time_budget_s > 0.0) {
        wctx.time_budget_s =
            std::max(ctx.time_budget_s - ctx.stopwatch.seconds(), 1e-9);
      }
      // Normalize through the binary AIGER round trip: a window replayed
      // from the checkpoint is parsed from these bytes, so the fresh path
      // must adopt the exact same structure for resumed and uninterrupted
      // runs to stitch identically.
      std::string bytes =
          write_aiger_binary(window_pipeline.run(wctx).final_aig);
      if (ctx.should_stop()) return;
      Aig norm = read_aiger_binary(bytes);
      const Aig& orig = wctx.input;
      std::uint8_t s = kRejectedQor;
      bool smaller = norm.num_ands() < orig.num_ands() ||
                     (norm.num_ands() == orig.num_ands() &&
                      norm.num_levels() < orig.num_levels());
      if (smaller) {
        CecParams gate = params.cec_params;
        gate.time_limit_s = 0.0;  // conflict-bounded only: deterministic
        // A stop ends the proof kUndecided; the chunk is discarded then.
        CecStatus verdict =
            cec(orig, norm, gate, [&ctx] { return ctx.should_stop(); }).status;
        s = verdict == CecStatus::kEquivalent ? kAdopted : kRejectedCec;
      }
      status[i] = s;
      adopted[i].reset();  // the replay may have parsed part of this chunk
      SnapshotWriter entry;
      entry.varint(i);
      entry.u8(s);
      if (s == kAdopted) {
        entry.varint(bytes.size());
        entry.bytes(bytes);
        adopted[i] = std::move(norm);
      }
      entries[k] = entry.take();
    });
    // A stop during the chunk discards it: its windows may have been cut
    // short or skipped.
    if (ctx.should_stop()) return out;

    SnapshotWriter record;
    record.varint(c);
    record.varint(hi - lo);
    for (const std::string& entry : entries) record.bytes(entry);
    if (!params.checkpoint_path.empty()) {
      append_checkpoint(params.checkpoint_path, record.str());
    }
    ++fresh_chunks;
  }

  for (std::uint8_t s : status) {
    if (s == kAdopted) ++st.windows_adopted;
    else if (s == kRejectedCec) ++st.windows_rejected_cec;
    else ++st.windows_rejected_qor;
  }
  out.optimized = stitch(input, windows, adopted);
  st.ands_after = out.optimized.num_ands();
  st.completed = true;
  return out;
}

}  // namespace emorphic
