// Mid-saturation checkpoint/restore ("EMCK") and the partition stage as a
// flow citizen: kill a run mid-rewrite, resume it from the checkpoint file,
// and require the final netlist to be bit-identical to an uninterrupted run.
// Also checks that EMCK and EMPC, which share one checkpoint envelope,
// refuse each other's files.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#include "../test_helpers.hpp"
#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "egraph/rules.hpp"
#include "egraph/snapshot.hpp"
#include "flow/partition_flow.hpp"
#include "flow/pipeline.hpp"

namespace emorphic {
namespace {

FlowParams checkpoint_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 8000;
  // Checkpoint-resume identity only holds when no wall-clock limit can fire.
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  params.cec_params.conflict_limit = 50000;
  return params;
}

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "emorphic_" + name + ".emck";
  std::remove(path.c_str());
  return path;
}

/// Sets the shared cancel flag once `stop_after` rewrite iterations ran.
class CancelAfterIterations : public FlowObserver {
 public:
  CancelAfterIterations(std::atomic<bool>* flag, int stop_after)
      : flag_(flag), stop_after_(stop_after) {}
  void on_rewrite_iteration(const IterationStats&,
                            const FlowContext&) override {
    if (++iterations_ >= stop_after_) flag_->store(true);
  }

 private:
  std::atomic<bool>* flag_;
  int stop_after_;
  int iterations_ = 0;
};

TEST(RewriteCheckpoint, ResumeMatchesUninterruptedRun) {
  Aig input = make_adder(6);
  FlowParams params = checkpoint_params();

  // Reference: straight through, no checkpointing.
  FlowResult straight = Pipeline::emorphic().run(input, params);
  ASSERT_FALSE(straight.cancelled);
  std::string want = write_aiger(straight.final_aig);

  // Interrupted: kill after the first saturation iteration. The hook wrote
  // the iteration-1 snapshot before the cancel poll saw the flag.
  std::string path = temp_path("resume");
  params.checkpoint_path = path;
  std::atomic<bool> cancel{false};
  CancelAfterIterations observer(&cancel, 1);
  FlowContext ctx;
  ctx.params = params;
  ctx.input = input;
  ctx.observer = &observer;
  ctx.cancel = &cancel;
  FlowResult killed = Pipeline::emorphic().run(ctx);
  EXPECT_TRUE(killed.cancelled);
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "no checkpoint was written";
  }

  // Resumed: same circuit and params, fresh context, no cancellation. The
  // Rewrite stage restores the snapshot and runs only the remaining
  // iterations; everything downstream is a deterministic function of the
  // e-graph, so the final netlist must be byte-identical.
  FlowResult resumed = Pipeline::emorphic().run(input, params);
  ASSERT_FALSE(resumed.cancelled);
  EXPECT_EQ(write_aiger(resumed.final_aig), want);
  EXPECT_DOUBLE_EQ(resumed.qor.area, straight.qor.area);
  EXPECT_DOUBLE_EQ(resumed.qor.delay, straight.qor.delay);
  std::remove(path.c_str());
}

TEST(RewriteCheckpoint, CompletedCheckpointRestoresWithoutIterating) {
  Aig input = make_adder(5);
  FlowParams params = checkpoint_params();
  std::string path = temp_path("complete");
  params.checkpoint_path = path;

  FlowResult first = Pipeline::emorphic().run(input, params);
  ASSERT_FALSE(first.cancelled);
  // Second run restores the final snapshot and re-runs at most one
  // (no-op, if the first run saturated early) iteration — same answer.
  FlowResult second = Pipeline::emorphic().run(input, params);
  EXPECT_EQ(write_aiger(second.final_aig), write_aiger(first.final_aig));
  EXPECT_LE(second.rewrite_report.iterations.size(),
            first.rewrite_report.iterations.size());
  std::remove(path.c_str());
}

TEST(RewriteCheckpoint, FingerprintMismatchThrows) {
  std::string path = temp_path("fingerprint");
  FlowParams params = checkpoint_params();
  params.checkpoint_path = path;
  ASSERT_FALSE(Pipeline::emorphic().run(make_adder(6), params).cancelled);
  // A different circuit under the same checkpoint path must be refused.
  EXPECT_THROW(Pipeline::emorphic().run(make_arbiter(6), params),
               SnapshotError);
  // So must the same circuit under different saturation limits.
  FlowParams other = params;
  other.rewrite.max_enodes += 1;
  EXPECT_THROW(Pipeline::emorphic().run(make_adder(6), other), SnapshotError);
  std::remove(path.c_str());
}

TEST(RewriteCheckpoint, RuleSetMismatchThrows) {
  // A custom rule set must not resume a default-rule saturation.
  std::string path = temp_path("rules");
  FlowParams params = checkpoint_params();
  params.checkpoint_path = path;
  auto saturate = [&](std::vector<Rewrite> rules) {
    Pipeline pipeline;
    pipeline.add("EgraphConversion")
        .add(StagePtr(new RewriteStage(std::move(rules))));
    return pipeline.run(make_adder(6), params);
  };
  ASSERT_FALSE(saturate({}).cancelled);  // empty: the default rules
  std::vector<Rewrite> subset = make_logic_rules();
  subset.resize(subset.size() / 2);
  EXPECT_THROW(saturate(subset), SnapshotError);
  std::remove(path.c_str());
}

TEST(RewriteCheckpoint, UnwritablePathThrowsNamingIt) {
  // A checkpoint that cannot be written must fail the run, not silently
  // leave it unrecoverable.
  FlowParams params = checkpoint_params();
  params.checkpoint_path =
      ::testing::TempDir() + "emorphic_no_such_dir/rewrite.emck";
  try {
    (void)Pipeline::emorphic(params).run(make_adder(6), params);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(params.checkpoint_path),
              std::string::npos)
        << e.what();
  }
}

// --- one envelope, two formats ----------------------------------------------

/// Expect `run` to throw a SnapshotError whose message names `format`.
template <typename Fn>
void expect_format_error(Fn run, const std::string& format) {
  try {
    run();
    FAIL() << "expected SnapshotError naming " << format;
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(format), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointEnvelope, FormatsRefuseEachOthersFiles) {
  // Both formats share the envelope's read path; its magic check is what
  // keeps a file of one format from being parsed as the other.
  Aig input = make_adder(6);
  FlowParams rewrite = checkpoint_params();
  rewrite.checkpoint_path = temp_path("envelope_emck");
  ASSERT_FALSE(Pipeline::emorphic().run(input, rewrite).cancelled);

  FlowParams windows = checkpoint_params();
  windows.window_size = 20;
  windows.checkpoint_path = temp_path("envelope_empc");
  FlowContext windowed;
  windowed.current = input;
  windowed.params = windows;
  ASSERT_TRUE(partition_optimize(windowed).stats.completed);

  // The windowed flow's EMPC file on the Rewrite stage's path...
  FlowParams swapped = rewrite;
  swapped.checkpoint_path = windows.checkpoint_path;
  expect_format_error(
      [&] { (void)Pipeline::emorphic().run(input, swapped); },
      "rewrite checkpoint: wrong magic (expected \"EMCK\")");
  // ...and the Rewrite stage's EMCK file handed to the windowed flow.
  windowed.params.checkpoint_path = rewrite.checkpoint_path;
  expect_format_error(
      [&] { (void)partition_optimize(windowed); },
      "partition checkpoint: wrong magic (expected \"EMPC\")");
  std::remove(rewrite.checkpoint_path.c_str());
  std::remove(windows.checkpoint_path.c_str());
}

// --- the partition stage inside the flow -------------------------------------

TEST(PartitionFlow, EmorphicPartitionPipelinePreservesFunction) {
  Aig input = make_multiplier(6);
  FlowParams params = checkpoint_params();
  params.partition = true;
  params.window_size = 40;
  params.verify = true;  // end-to-end Cec gate over the stitched circuit
  FlowResult result = Pipeline::emorphic(params).run(input, params);
  ASSERT_FALSE(result.cancelled);
  ASSERT_TRUE(result.partition_stats.completed);
  EXPECT_GT(result.partition_stats.num_windows, 1u);
  EXPECT_EQ(result.partition_stats.ands_before, input.num_ands());
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  EXPECT_TRUE(testing::functionally_equal(input, result.final_aig));
}

TEST(PartitionFlow, PartitionOwnsTheCheckpointFile) {
  // With partition mode on, FlowParams::checkpoint_path is the window-level
  // "EMPC" checkpoint; the Rewrite-stage "EMCK" machinery must keep its
  // hands off even though the inner window flows run Rewrite stages.
  Aig input = make_adder(6);
  FlowParams params = checkpoint_params();
  params.partition = true;
  params.window_size = 20;
  std::string path = temp_path("empc_owner");
  params.checkpoint_path = path;
  FlowResult result = Pipeline::emorphic(params).run(input, params);
  ASSERT_TRUE(result.partition_stats.completed);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  char magic[4] = {};
  in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "EMPC");
  std::remove(path.c_str());
}

TEST(PartitionFlow, CancelledPartitionReportsCancelled) {
  Aig input = make_adder(6);
  FlowParams params = checkpoint_params();
  params.partition = true;
  params.window_size = 20;
  std::atomic<bool> cancel{true};
  FlowContext ctx;
  ctx.params = params;
  ctx.input = input;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::emorphic(params).run(ctx);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_FALSE(result.partition_stats.completed);
}

}  // namespace
}  // namespace emorphic
