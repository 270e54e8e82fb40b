// The windowed flow (flow/partition_flow.hpp): function preservation,
// thread-count determinism, a golden digest of a straight run, the "EMPC"
// checkpoint's resume, fingerprint, torn-tail, cancel and deadline
// contracts, and the partition stage inside the "partition" recipe. The
// window geometry it builds on is tested in tests/opt/test_partition.cpp.

#include "flow/partition_flow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>

#include "../test_helpers.hpp"
#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/doubling.hpp"
#include "benchgen/scale.hpp"
#include "cec/cec.hpp"
#include "util/checkpoint.hpp"

namespace emorphic {
namespace {

// Flow parameters with every wall-clock budget disabled: the partition
// determinism contract only holds when no limit depends on elapsed time.
FlowParams window_params(std::uint32_t window_size) {
  FlowParams p;
  p.window_size = window_size;
  p.rewrite.max_iterations = 2;
  p.rewrite.max_enodes = 2000;
  p.rewrite.time_limit_s = 1e9;
  return p;
}

/// The windowed flow over `aig` under a context holding `params` and
/// `seed`, as PartitionStage runs it.
PartitionResult partition(const Aig& aig, const FlowParams& params,
                          std::uint64_t seed,
                          const PartitionParams& run = {}) {
  FlowContext ctx;
  ctx.current = aig;
  ctx.params = params;
  ctx.seed = seed;
  return partition_optimize(ctx, run);
}

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "emorphic_" + name + ".empc";
  std::remove(path.c_str());
  return path;
}

TEST(PartitionFlow, OptimizePreservesFunction) {
  Rng rng(55);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult r = partition(aig, window_params(25), 5);
  ASSERT_TRUE(r.stats.completed);
  EXPECT_EQ(r.stats.num_windows, r.stats.windows_adopted +
                                     r.stats.windows_rejected_qor +
                                     r.stats.windows_rejected_cec);
  // Rebuild-stitching strashes across seams, so the result never grows.
  EXPECT_LE(r.stats.ands_after, r.stats.ands_before);
  EXPECT_TRUE(testing::functionally_equal(aig, r.optimized));
  EXPECT_EQ(cec(aig, r.optimized).status, CecStatus::kEquivalent);
}

TEST(PartitionFlow, OptimizeDegenerateWindowSizes) {
  Rng rng(56);
  Aig aig = testing::random_aig(6, 3, 60, rng);
  // Per-node windows: nothing shrinks below one AND, but the flow must
  // complete and preserve the function.
  PartitionResult ones = partition(aig, window_params(1), 3);
  ASSERT_TRUE(ones.stats.completed);
  EXPECT_EQ(cec(aig, ones.optimized).status, CecStatus::kEquivalent);
  // One whole-circuit window.
  PartitionResult whole = partition(
      aig, window_params(static_cast<std::uint32_t>(aig.num_ands()) + 1), 3);
  ASSERT_TRUE(whole.stats.completed);
  EXPECT_EQ(whole.stats.num_windows, 1u);
  EXPECT_EQ(cec(aig, whole.optimized).status, CecStatus::kEquivalent);
  // A zero window size is a caller error.
  EXPECT_THROW(partition(aig, window_params(0), 1),
               std::invalid_argument);
}

TEST(PartitionFlow, BitIdenticalAcrossThreadCounts) {
  // The determinism claim: same circuit, seed and window size give a
  // byte-identical stitched netlist at any worker count, including an
  // oversubscribed pool.
  Rng rng(57);
  Aig aig = testing::random_aig(8, 4, 300, rng);
  std::string reference;
  PartitionStats ref_stats;
  for (unsigned threads : {1u, 2u, 4u, 8u, 32u}) {
    PartitionParams run;
    run.num_threads = threads;
    PartitionResult r = partition(aig, window_params(30), 7, run);
    ASSERT_TRUE(r.stats.completed) << threads << " threads";
    std::string bytes = write_aiger_binary(r.optimized);
    if (reference.empty()) {
      reference = bytes;
      ref_stats = r.stats;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
      EXPECT_EQ(r.stats.windows_adopted, ref_stats.windows_adopted);
      EXPECT_EQ(r.stats.windows_rejected_qor, ref_stats.windows_rejected_qor);
      EXPECT_EQ(r.stats.windows_rejected_cec, ref_stats.windows_rejected_cec);
      EXPECT_EQ(r.stats.ands_after, ref_stats.ands_after);
    }
  }
}

TEST(PartitionFlow, GoldenStraightRunDigest) {
  // One digest of the stitched netlist's binary AIGER and the EMPC
  // checkpoint bytes of a straight fraig_post run (31 windows, 2 chunks),
  // at 1 and 4 threads. The constant was derived at the commit before each
  // window became one pool task: it pins that move as byte-identical across
  // commits, not only across thread counts.
  constexpr std::uint64_t kGolden = 0x81bd1e29891e5576ull;
  const Aig input = tile_to_ands(doubled(make_adder(6)), 3000);
  FlowParams params = window_params(100);
  params.fraig_post = true;
  params.checkpoint_path = temp_path("golden");
  for (unsigned threads : {1u, 4u}) {
    std::remove(params.checkpoint_path.c_str());
    PartitionParams run;
    run.num_threads = threads;
    PartitionResult r = partition(input, params, 21, run);
    ASSERT_TRUE(r.stats.completed);
    EXPECT_EQ(r.stats.chunks_total, 2u);
    std::ifstream in(params.checkpoint_path, std::ios::binary);
    const std::string checkpoint{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
    std::uint64_t h = 0;
    for (unsigned char ch : write_aiger_binary(r.optimized)) {
      h = fingerprint_fold(h, ch);
    }
    for (unsigned char ch : checkpoint) h = fingerprint_fold(h, ch);
    EXPECT_EQ(h, kGolden) << threads << " threads: 0x" << std::hex << h;
  }
  std::remove(params.checkpoint_path.c_str());
}

TEST(PartitionFlow, SeedChangesAreIsolatedToResults) {
  // Different seeds may optimize differently but must both be equivalent.
  Rng rng(58);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult a = partition(aig, window_params(25), 1);
  PartitionResult b = partition(aig, window_params(25), 2);
  ASSERT_TRUE(a.stats.completed && b.stats.completed);
  EXPECT_EQ(cec(aig, a.optimized).status, CecStatus::kEquivalent);
  EXPECT_EQ(cec(aig, b.optimized).status, CecStatus::kEquivalent);
}

TEST(PartitionFlow, ResumeMatchesUninterruptedRun) {
  // Kill after the first chunk, resume, and require the exact bytes of the
  // straight-through run — the checkpoint replays recorded windows rather
  // than recomputing them, so any normalization gap would show here.
  Rng rng(59);
  Aig aig = testing::random_aig(8, 4, 260, rng);
  FlowParams params = window_params(8);  // > 16 windows -> >= 2 chunks

  PartitionResult straight = partition(aig, params, 9);
  ASSERT_TRUE(straight.stats.completed);
  ASSERT_GE(straight.stats.chunks_total, 2u);
  std::string want = write_aiger_binary(straight.optimized);

  params.checkpoint_path = temp_path("resume");
  PartitionParams first;
  first.stop_after_chunks = 1;
  PartitionResult partial = partition(aig, params, 9, first);
  EXPECT_FALSE(partial.stats.completed);

  PartitionResult resumed = partition(aig, params, 9);
  ASSERT_TRUE(resumed.stats.completed);
  EXPECT_EQ(resumed.stats.chunks_resumed, 1u);
  EXPECT_EQ(write_aiger_binary(resumed.optimized), want);
  std::remove(params.checkpoint_path.c_str());
}

TEST(PartitionFlow, ResumeFromCompleteCheckpointRecomputesNothing) {
  Rng rng(60);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  FlowParams params = window_params(10);
  params.checkpoint_path = temp_path("complete");
  PartitionResult first = partition(aig, params, 11);
  ASSERT_TRUE(first.stats.completed);
  PartitionResult again = partition(aig, params, 11);
  ASSERT_TRUE(again.stats.completed);
  EXPECT_EQ(again.stats.chunks_resumed, again.stats.chunks_total);
  EXPECT_EQ(write_aiger_binary(again.optimized),
            write_aiger_binary(first.optimized));
  std::remove(params.checkpoint_path.c_str());
}

TEST(PartitionFlow, CheckpointFingerprintMismatchThrows) {
  Rng rng(61);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  FlowParams params = window_params(10);
  params.checkpoint_path = temp_path("fingerprint");
  PartitionParams run;
  run.stop_after_chunks = 1;
  (void)partition(aig, params, 13, run);
  // Same circuit, different seed: the recorded windows no longer apply.
  EXPECT_THROW(partition(aig, params, 14), SnapshotError);
  // Different circuit under the original seed: also refused.
  Aig changed = testing::random_aig(8, 4, 200, rng);
  EXPECT_THROW(partition(changed, params, 13, run), SnapshotError);
  std::remove(params.checkpoint_path.c_str());
}

TEST(PartitionFlow, UnwritableCheckpointPathThrowsNamingIt) {
  Rng rng(62);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  FlowParams params = window_params(10);
  params.checkpoint_path =
      ::testing::TempDir() + "emorphic_no_such_dir/windows.empc";
  try {
    (void)partition(aig, params, 11);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(params.checkpoint_path),
              std::string::npos)
        << e.what();
  }
}

TEST(PartitionFlow, TornCheckpointTailIsTruncatedAndRecomputed) {
  Rng rng(62);
  Aig aig = testing::random_aig(8, 4, 260, rng);
  FlowParams params = window_params(8);
  std::string want;
  {
    PartitionResult straight = partition(aig, params, 15);
    ASSERT_TRUE(straight.stats.completed);
    want = write_aiger_binary(straight.optimized);
  }
  const std::string path = temp_path("torn");
  params.checkpoint_path = path;
  ASSERT_TRUE(partition(aig, params, 15).stats.completed);

  // Tear the file mid-record (drop the last 3 bytes), as a crash during
  // append would. The resumed run must truncate to the valid prefix and
  // recompute the rest, landing on the same bytes.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(data.size(), 3u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() - 3));
  }
  PartitionResult resumed = partition(aig, params, 15);
  ASSERT_TRUE(resumed.stats.completed);
  EXPECT_LT(resumed.stats.chunks_resumed, resumed.stats.chunks_total);
  EXPECT_EQ(write_aiger_binary(resumed.optimized), want);

  // Trailing garbage after valid records is likewise discarded.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("garbage", 7);
  }
  PartitionResult cleaned = partition(aig, params, 15);
  ASSERT_TRUE(cleaned.stats.completed);
  EXPECT_EQ(write_aiger_binary(cleaned.optimized), want);
  std::remove(path.c_str());
}

TEST(PartitionFlow, CancelStopsBetweenChunks) {
  Rng rng(63);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  std::atomic<bool> cancel{true};
  FlowContext ctx;
  ctx.current = aig;
  ctx.params = window_params(10);
  ctx.seed = 17;
  ctx.cancel = &cancel;
  PartitionResult r = partition_optimize(ctx);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.optimized.num_pos(), 0u);
  EXPECT_EQ(ctx.stop_signal.load(), FlowStopReason::kCancelled);
}

TEST(PartitionFlow, DeadlineStopsBetweenChunks) {
  // A served partition job's deadline is the context's time budget: the
  // stage polls it between chunks, so an expired budget stops the run
  // after the chunk in flight, not after the whole stage.
  Aig input = tile_to_ands(doubled(make_adder(6)), 12000);  // 41 windows
  FlowParams params = window_params(300);
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 12000;
  Pipeline pipeline;
  pipeline.add(std::make_unique<PartitionStage>());
  FlowContext ctx;
  ctx.input = input;
  ctx.params = params;
  ctx.time_budget_s = 0.05;  // one chunk takes about 0.15 s on 4 cores
  FlowResult r = pipeline.run(ctx);
  ASSERT_EQ(r.telemetry.stages.size(), 1u);  // the stage started in budget
  EXPECT_FALSE(r.cancelled);                  // and no stage was skipped
  EXPECT_GE(r.partition_stats.chunks_total, 3u);
  EXPECT_FALSE(r.partition_stats.completed);
  EXPECT_EQ(r.stop_reason, FlowStopReason::kDeadline);
  EXPECT_EQ(write_aiger_binary(r.final_aig), write_aiger_binary(input));

  // Every window gets the remaining budget, so the chunk in flight is cut
  // short too: a budgeted run ends in under half the time of an unbounded
  // first chunk. A window stops at its next poll, after its rewrite
  // iteration in flight, so the comparison holds the pool at 4 threads:
  // each runs four windows one after another, whatever the core count.
  PartitionParams four;
  four.num_threads = 4;
  four.stop_after_chunks = 1;
  Timer first_chunk;
  (void)partition(input, params, 0, four);
  const double chunk_s = first_chunk.seconds();
  four.stop_after_chunks = 0;
  FlowContext budgeted;
  budgeted.current = input;
  budgeted.params = params;
  budgeted.time_budget_s = 0.01;
  Timer cut;
  EXPECT_FALSE(partition_optimize(budgeted, four).stats.completed);
  const double cut_s = cut.seconds();
  EXPECT_LT(cut_s, 0.5 * chunk_s)
      << "budgeted run " << cut_s << " s, first chunk " << chunk_s << " s";
}

// --- the partition stage inside the flow -------------------------------------

/// Whole-recipe parameters: small saturation and SA effort, no wall-clock
/// limit on the rewrite.
FlowParams recipe_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  params.cec_params.conflict_limit = 50000;
  return params;
}

TEST(PartitionFlow, EmorphicPartitionPipelinePreservesFunction) {
  Aig input = make_multiplier(6);
  FlowParams params = recipe_params();
  params.window_size = 40;
  params.verify = true;  // end-to-end Cec gate over the stitched circuit
  FlowResult result = Pipeline::recipe("partition").run(input, params);
  ASSERT_FALSE(result.cancelled);
  ASSERT_TRUE(result.partition_stats.completed);
  EXPECT_GT(result.partition_stats.num_windows, 1u);
  EXPECT_EQ(result.partition_stats.ands_before, input.num_ands());
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  EXPECT_TRUE(testing::functionally_equal(input, result.final_aig));
}

TEST(PartitionFlow, PartitionOwnsTheCheckpointFile) {
  // In the partition recipe, FlowParams::checkpoint_path is the
  // window-level "EMPC" checkpoint; the inner window flows run Rewrite
  // stages but never touch the file.
  Aig input = make_adder(6);
  FlowParams params = recipe_params();
  params.window_size = 20;
  std::string path = temp_path("empc_owner");
  params.checkpoint_path = path;
  FlowResult result = Pipeline::recipe("partition").run(input, params);
  ASSERT_TRUE(result.partition_stats.completed);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  char magic[4] = {};
  in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "EMPC");
  std::remove(path.c_str());
}

TEST(PartitionFlow, EmorphicRecipeIgnoresTheCheckpointPath) {
  // Only the partition stage reads checkpoint_path: a recipe without it
  // writes no file and returns the netlist of a run without the path.
  Aig input = make_adder(6);
  FlowParams params = recipe_params();
  FlowResult plain = Pipeline::recipe("emorphic").run(input, params);
  std::string path = temp_path("emorphic_no_file");
  params.checkpoint_path = path;
  FlowResult with_path = Pipeline::recipe("emorphic").run(input, params);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(write_aiger(with_path.final_aig), write_aiger(plain.final_aig));
  std::remove(path.c_str());
}

TEST(PartitionFlow, CancelledPartitionReportsCancelled) {
  Aig input = make_adder(6);
  FlowParams params = recipe_params();
  params.window_size = 20;
  std::atomic<bool> cancel{true};
  FlowContext ctx;
  ctx.params = params;
  ctx.input = input;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::recipe("partition").run(ctx);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_FALSE(result.partition_stats.completed);
}

}  // namespace
}  // namespace emorphic
