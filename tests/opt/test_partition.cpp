#include "opt/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "aig/aig_io.hpp"
#include "cec/cec.hpp"
#include "egraph/snapshot.hpp"

namespace emorphic {
namespace {

// Test parameters with every wall-clock budget disabled: the partition
// determinism contract only holds when no limit depends on elapsed time.
PartitionParams test_params(std::uint32_t window_size, std::uint64_t seed) {
  PartitionParams p;
  p.window_size = window_size;
  p.seed = seed;
  p.rewrite.max_iterations = 2;
  p.rewrite.max_enodes = 2000;
  p.rewrite.time_limit_s = 1e9;
  return p;
}

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "emorphic_" + name + ".empc";
  std::remove(path.c_str());
  return path;
}

TEST(Partition, AssignWindowsInvariants) {
  Rng rng(51);
  for (std::uint32_t window_size : {1u, 7u, 50u, 1000u}) {
    Aig aig = testing::random_aig(8, 4, 150, rng);
    WindowAssignment a = assign_windows(aig, window_size);
    ASSERT_EQ(a.window_of.size(), aig.num_nodes());
    std::vector<std::size_t> fill(a.num_windows, 0);
    for (Var v = 0; v < aig.num_nodes(); ++v) {
      if (!aig.is_and(v)) {
        EXPECT_EQ(a.window_of[v], kNoWindow);
        continue;
      }
      std::uint32_t w = a.window_of[v];
      ASSERT_LT(w, a.num_windows);
      ++fill[w];
      // The acyclicity invariant: a fanin's window never exceeds its
      // fanout's, so stitching in ascending window order is well-defined.
      for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
        std::uint32_t fw = a.window_of[lit_var(f)];
        if (fw != kNoWindow) EXPECT_LE(fw, w);
      }
    }
    for (std::size_t f : fill) {
      EXPECT_GT(f, 0u);
      EXPECT_LE(f, window_size);
    }
  }
}

TEST(Partition, AssignWindowsDegenerateSizes) {
  Rng rng(52);
  Aig aig = testing::random_aig(6, 3, 80, rng);
  EXPECT_THROW(assign_windows(aig, 0), std::invalid_argument);
  // Per-node windows.
  WindowAssignment ones = assign_windows(aig, 1);
  EXPECT_EQ(ones.num_windows, aig.num_ands());
  // One whole-circuit window.
  WindowAssignment whole =
      assign_windows(aig, static_cast<std::uint32_t>(aig.num_ands()) + 10);
  EXPECT_EQ(whole.num_windows, 1u);
  // No ANDs at all: no windows.
  Aig trivial;
  trivial.add_po(make_lit(trivial.add_pi()));
  EXPECT_EQ(assign_windows(trivial, 4).num_windows, 0u);
}

TEST(Partition, BuildWindowsInterfaces) {
  Rng rng(53);
  Aig aig = testing::random_aig(8, 4, 120, rng);
  WindowAssignment a = assign_windows(aig, 20);
  std::vector<Window> windows = build_windows(aig, a);
  ASSERT_EQ(windows.size(), a.num_windows);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& win = windows[w];
    EXPECT_TRUE(std::is_sorted(win.members.begin(), win.members.end()));
    EXPECT_TRUE(std::is_sorted(win.inputs.begin(), win.inputs.end()));
    EXPECT_TRUE(std::is_sorted(win.outputs.begin(), win.outputs.end()));
    for (Var m : win.members) EXPECT_EQ(a.window_of[m], w);
    for (Var in : win.inputs) {
      EXPECT_NE(in, 0u);  // const0 is never a boundary input
      EXPECT_NE(a.window_of[in], static_cast<std::uint32_t>(w));
      if (a.window_of[in] != kNoWindow) EXPECT_LT(a.window_of[in], w);
    }
    for (Var out : win.outputs) {
      EXPECT_TRUE(std::binary_search(win.members.begin(), win.members.end(),
                                     out));
    }
  }
  // Every AND var feeding a PO is an output of its window.
  for (Lit po : aig.pos()) {
    Var pv = lit_var(po);
    std::uint32_t w = a.window_of[pv];
    if (w == kNoWindow) continue;
    EXPECT_TRUE(std::binary_search(windows[w].outputs.begin(),
                                   windows[w].outputs.end(), pv));
  }
}

TEST(Partition, ExtractWindowShapesMatchInterfaces) {
  Rng rng(54);
  Aig aig = testing::random_aig(8, 4, 120, rng);
  WindowAssignment a = assign_windows(aig, 20);
  for (const Window& win : build_windows(aig, a)) {
    Aig sub = extract_window(aig, win);
    EXPECT_EQ(sub.num_pis(), win.inputs.size());
    EXPECT_EQ(sub.num_pos(), win.outputs.size());
    EXPECT_LE(sub.num_ands(), win.members.size());
  }
}

TEST(Partition, OptimizePreservesFunction) {
  Rng rng(55);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult r = partition_optimize(aig, test_params(25, 5));
  ASSERT_TRUE(r.stats.completed);
  EXPECT_EQ(r.stats.num_windows, r.stats.windows_adopted +
                                     r.stats.windows_rejected_qor +
                                     r.stats.windows_rejected_cec);
  // Rebuild-stitching strashes across seams, so the result never grows.
  EXPECT_LE(r.stats.ands_after, r.stats.ands_before);
  EXPECT_TRUE(testing::functionally_equal(aig, r.optimized));
  EXPECT_EQ(cec(aig, r.optimized).status, CecStatus::kEquivalent);
}

TEST(Partition, OptimizeDegenerateWindowSizes) {
  Rng rng(56);
  Aig aig = testing::random_aig(6, 3, 60, rng);
  // Per-node windows: nothing shrinks below one AND, but the flow must
  // complete and preserve the function.
  PartitionResult ones = partition_optimize(aig, test_params(1, 3));
  ASSERT_TRUE(ones.stats.completed);
  EXPECT_EQ(cec(aig, ones.optimized).status, CecStatus::kEquivalent);
  // One whole-circuit window.
  PartitionResult whole = partition_optimize(
      aig, test_params(static_cast<std::uint32_t>(aig.num_ands()) + 1, 3));
  ASSERT_TRUE(whole.stats.completed);
  EXPECT_EQ(whole.stats.num_windows, 1u);
  EXPECT_EQ(cec(aig, whole.optimized).status, CecStatus::kEquivalent);
}

TEST(Partition, BitIdenticalAcrossThreadCounts) {
  // The tentpole determinism claim: same circuit, seed and window size give
  // a byte-identical stitched netlist at any worker count, including an
  // oversubscribed pool.
  Rng rng(57);
  Aig aig = testing::random_aig(8, 4, 300, rng);
  std::string reference;
  PartitionStats ref_stats;
  for (unsigned threads : {1u, 2u, 4u, 8u, 32u}) {
    PartitionParams p = test_params(30, 7);
    p.num_threads = threads;
    PartitionResult r = partition_optimize(aig, p);
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

TEST(Partition, SeedChangesAreIsolatedToResults) {
  // Different seeds may optimize differently but must both be equivalent.
  Rng rng(58);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionResult a = partition_optimize(aig, test_params(25, 1));
  PartitionResult b = partition_optimize(aig, test_params(25, 2));
  ASSERT_TRUE(a.stats.completed && b.stats.completed);
  EXPECT_EQ(cec(aig, a.optimized).status, CecStatus::kEquivalent);
  EXPECT_EQ(cec(aig, b.optimized).status, CecStatus::kEquivalent);
}

TEST(Partition, ResumeMatchesUninterruptedRun) {
  // Kill after the first chunk, resume, and require the exact bytes of the
  // straight-through run — the checkpoint replays recorded windows rather
  // than recomputing them, so any normalization gap would show here.
  Rng rng(59);
  Aig aig = testing::random_aig(8, 4, 260, rng);
  PartitionParams base = test_params(8, 9);  // > 16 windows -> >= 2 chunks

  PartitionResult straight = partition_optimize(aig, base);
  ASSERT_TRUE(straight.stats.completed);
  ASSERT_GE(straight.stats.chunks_total, 2u);
  std::string want = write_aiger_binary(straight.optimized);

  std::string path = temp_path("resume");
  PartitionParams first = base;
  first.checkpoint_path = path;
  first.stop_after_chunks = 1;
  PartitionResult partial = partition_optimize(aig, first);
  EXPECT_FALSE(partial.stats.completed);

  PartitionParams second = base;
  second.checkpoint_path = path;
  PartitionResult resumed = partition_optimize(aig, second);
  ASSERT_TRUE(resumed.stats.completed);
  EXPECT_EQ(resumed.stats.chunks_resumed, 1u);
  EXPECT_EQ(write_aiger_binary(resumed.optimized), want);
  std::remove(path.c_str());
}

TEST(Partition, ResumeFromCompleteCheckpointRecomputesNothing) {
  Rng rng(60);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  std::string path = temp_path("complete");
  PartitionParams p = test_params(10, 11);
  p.checkpoint_path = path;
  PartitionResult first = partition_optimize(aig, p);
  ASSERT_TRUE(first.stats.completed);
  PartitionResult again = partition_optimize(aig, p);
  ASSERT_TRUE(again.stats.completed);
  EXPECT_EQ(again.stats.chunks_resumed, again.stats.chunks_total);
  EXPECT_EQ(write_aiger_binary(again.optimized),
            write_aiger_binary(first.optimized));
  std::remove(path.c_str());
}

TEST(Partition, CheckpointFingerprintMismatchThrows) {
  Rng rng(61);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  std::string path = temp_path("fingerprint");
  PartitionParams p = test_params(10, 13);
  p.checkpoint_path = path;
  p.stop_after_chunks = 1;
  (void)partition_optimize(aig, p);
  // Same circuit, different seed: the recorded windows no longer apply.
  PartitionParams other = test_params(10, 14);
  other.checkpoint_path = path;
  EXPECT_THROW(partition_optimize(aig, other), SnapshotError);
  // Different circuit under the original seed: also refused.
  Aig changed = testing::random_aig(8, 4, 200, rng);
  EXPECT_THROW(partition_optimize(changed, p), SnapshotError);
  std::remove(path.c_str());
}

TEST(Partition, UnwritableCheckpointPathThrowsNamingIt) {
  Rng rng(62);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  PartitionParams p = test_params(10, 11);
  p.checkpoint_path =
      ::testing::TempDir() + "emorphic_no_such_dir/windows.empc";
  try {
    (void)partition_optimize(aig, p);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(p.checkpoint_path),
              std::string::npos)
        << e.what();
  }
}

TEST(Partition, TornCheckpointTailIsTruncatedAndRecomputed) {
  Rng rng(62);
  Aig aig = testing::random_aig(8, 4, 260, rng);
  PartitionParams base = test_params(8, 15);
  std::string want;
  {
    PartitionResult straight = partition_optimize(aig, base);
    ASSERT_TRUE(straight.stats.completed);
    want = write_aiger_binary(straight.optimized);
  }
  std::string path = temp_path("torn");
  PartitionParams p = base;
  p.checkpoint_path = path;
  ASSERT_TRUE(partition_optimize(aig, p).stats.completed);

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
  PartitionResult resumed = partition_optimize(aig, p);
  ASSERT_TRUE(resumed.stats.completed);
  EXPECT_LT(resumed.stats.chunks_resumed, resumed.stats.chunks_total);
  EXPECT_EQ(write_aiger_binary(resumed.optimized), want);

  // Trailing garbage after valid records is likewise discarded.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("garbage", 7);
  }
  PartitionResult cleaned = partition_optimize(aig, p);
  ASSERT_TRUE(cleaned.stats.completed);
  EXPECT_EQ(write_aiger_binary(cleaned.optimized), want);
  std::remove(path.c_str());
}

TEST(Partition, CancelStopsBetweenChunks) {
  Rng rng(63);
  Aig aig = testing::random_aig(8, 4, 200, rng);
  std::atomic<bool> cancel{true};
  PartitionParams p = test_params(10, 17);
  p.cancel = &cancel;
  PartitionResult r = partition_optimize(aig, p);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.optimized.num_pos(), 0u);
}

}  // namespace
}  // namespace emorphic
