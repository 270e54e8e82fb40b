// The windowed flow (flow/partition_flow.hpp): function preservation,
// thread-count determinism, and the "EMPC" checkpoint's resume, fingerprint,
// torn-tail and cancel contracts. The window geometry it builds on is
// tested in tests/opt/test_partition.cpp.

#include "flow/partition_flow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "../test_helpers.hpp"
#include "aig/aig_io.hpp"
#include "cec/cec.hpp"
#include "egraph/snapshot.hpp"

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

PartitionParams seeded(std::uint64_t seed) {
  PartitionParams run;
  run.seed = seed;
  return run;
}

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "emorphic_" + name + ".empc";
  std::remove(path.c_str());
  return path;
}

TEST(PartitionFlow, OptimizePreservesFunction) {
  Rng rng(55);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult r = partition_optimize(aig, window_params(25), seeded(5));
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
  PartitionResult ones = partition_optimize(aig, window_params(1), seeded(3));
  ASSERT_TRUE(ones.stats.completed);
  EXPECT_EQ(cec(aig, ones.optimized).status, CecStatus::kEquivalent);
  // One whole-circuit window.
  PartitionResult whole = partition_optimize(
      aig, window_params(static_cast<std::uint32_t>(aig.num_ands()) + 1),
      seeded(3));
  ASSERT_TRUE(whole.stats.completed);
  EXPECT_EQ(whole.stats.num_windows, 1u);
  EXPECT_EQ(cec(aig, whole.optimized).status, CecStatus::kEquivalent);
  // A zero window size is a caller error.
  EXPECT_THROW(partition_optimize(aig, window_params(0)),
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
    PartitionParams run = seeded(7);
    run.num_threads = threads;
    PartitionResult r = partition_optimize(aig, window_params(30), run);
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

TEST(PartitionFlow, SeedChangesAreIsolatedToResults) {
  // Different seeds may optimize differently but must both be equivalent.
  Rng rng(58);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult a = partition_optimize(aig, window_params(25), seeded(1));
  PartitionResult b = partition_optimize(aig, window_params(25), seeded(2));
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

  PartitionResult straight = partition_optimize(aig, params, seeded(9));
  ASSERT_TRUE(straight.stats.completed);
  ASSERT_GE(straight.stats.chunks_total, 2u);
  std::string want = write_aiger_binary(straight.optimized);

  params.checkpoint_path = temp_path("resume");
  PartitionParams first = seeded(9);
  first.stop_after_chunks = 1;
  PartitionResult partial = partition_optimize(aig, params, first);
  EXPECT_FALSE(partial.stats.completed);

  PartitionResult resumed = partition_optimize(aig, params, seeded(9));
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
  PartitionResult first = partition_optimize(aig, params, seeded(11));
  ASSERT_TRUE(first.stats.completed);
  PartitionResult again = partition_optimize(aig, params, seeded(11));
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
  PartitionParams run = seeded(13);
  run.stop_after_chunks = 1;
  (void)partition_optimize(aig, params, run);
  // Same circuit, different seed: the recorded windows no longer apply.
  EXPECT_THROW(partition_optimize(aig, params, seeded(14)), SnapshotError);
  // Different circuit under the original seed: also refused.
  Aig changed = testing::random_aig(8, 4, 200, rng);
  EXPECT_THROW(partition_optimize(changed, params, run), SnapshotError);
  std::remove(params.checkpoint_path.c_str());
}

TEST(PartitionFlow, UnwritableCheckpointPathThrowsNamingIt) {
  Rng rng(62);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  FlowParams params = window_params(10);
  params.checkpoint_path =
      ::testing::TempDir() + "emorphic_no_such_dir/windows.empc";
  try {
    (void)partition_optimize(aig, params, seeded(11));
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
    PartitionResult straight = partition_optimize(aig, params, seeded(15));
    ASSERT_TRUE(straight.stats.completed);
    want = write_aiger_binary(straight.optimized);
  }
  const std::string path = temp_path("torn");
  params.checkpoint_path = path;
  ASSERT_TRUE(partition_optimize(aig, params, seeded(15)).stats.completed);

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
  PartitionResult resumed = partition_optimize(aig, params, seeded(15));
  ASSERT_TRUE(resumed.stats.completed);
  EXPECT_LT(resumed.stats.chunks_resumed, resumed.stats.chunks_total);
  EXPECT_EQ(write_aiger_binary(resumed.optimized), want);

  // Trailing garbage after valid records is likewise discarded.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("garbage", 7);
  }
  PartitionResult cleaned = partition_optimize(aig, params, seeded(15));
  ASSERT_TRUE(cleaned.stats.completed);
  EXPECT_EQ(write_aiger_binary(cleaned.optimized), want);
  std::remove(path.c_str());
}

TEST(PartitionFlow, CancelStopsBetweenChunks) {
  Rng rng(63);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  std::atomic<bool> cancel{true};
  PartitionParams run = seeded(17);
  run.cancel = &cancel;
  PartitionResult r = partition_optimize(aig, window_params(10), run);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.optimized.num_pos(), 0u);
}

}  // namespace
}  // namespace emorphic
