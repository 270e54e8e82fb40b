// Window geometry (opt/partition.hpp): assignment, interfaces, extraction
// and stitching. The windowed flow built on it is tested in
// tests/flow/test_partition_flow.cpp.

#include "opt/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "../test_helpers.hpp"
#include "cec/cec.hpp"

namespace emorphic {
namespace {

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

TEST(Partition, StitchReplaysAndReplacesWindows) {
  Rng rng(64);
  Aig aig = testing::random_aig(8, 4, 150, rng);
  std::vector<Window> windows = build_windows(aig, assign_windows(aig, 20));
  ASSERT_GT(windows.size(), 1u);
  // Replaying every window rebuilds the input node for node (renumbered
  // into window order; the input is already strashed, so nothing merges).
  std::vector<std::optional<Aig>> windows_out(windows.size());
  Aig replayed = stitch(aig, windows, windows_out);
  EXPECT_EQ(replayed.num_ands(), aig.num_ands());
  EXPECT_TRUE(testing::functionally_equal(aig, replayed));
  // Replacing every other window by its own extraction keeps the function.
  for (std::size_t w = 0; w < windows.size(); w += 2) {
    windows_out[w] = extract_window(aig, windows[w]);
  }
  Aig mixed = stitch(aig, windows, windows_out);
  EXPECT_EQ(mixed.num_pos(), aig.num_pos());
  EXPECT_EQ(cec(aig, mixed).status, CecStatus::kEquivalent);
}

}  // namespace
}  // namespace emorphic
