// Scaling harness for the partitioned-saturation mode (ROADMAP item 4):
// tiled, locally-redundant benchgen circuits grown to 10^6+ AND nodes, run
// through partition_optimize at increasing sizes. Wall clock and QoR per
// rung go to BENCH_scale.json; the exit code enforces:
//   * the stitched circuit is equivalent to its input on every rung —
//     every adopted window is already SAT-proven by construction, the
//     stitched whole must agree with the input under random simulation,
//     and at the smallest rung a monolithic SAT miter must prove it
//     outright (one shared conflict budget, so the monolithic proof only
//     stays tractable there — exactly the wall this mode exists to avoid),
//   * the partitioned flow completes the >= 10^6-AND circuit and improves
//     it, while whole-circuit saturation under the same e-node budget (the
//     paper's memory cap) halts at the node limit with no AND reduction,
//   * a run killed after its first checkpoint chunk and resumed finishes
//     with byte-identical netlist and QoR to the uninterrupted run.
//
// Workload: tiles of doubled() arithmetic circuits — each tile carries two
// functionally equal, structurally different copies, so every window holds
// real merge opportunities for the per-window flow (saturation + SAT sweep)
// and the adopt/reject QoR gate has actual work to judge.

#include "minibench.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "aig/aig_io.hpp"
#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/doubling.hpp"
#include "benchgen/scale.hpp"
#include "cec/cec.hpp"
#include "flow/partition_flow.hpp"
#include "flow/pipeline.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace emorphic;

Aig tile_base() { return doubled(make_adder(6)); }

/// One shared saturation budget for every mode in this harness: windows
/// convert and rewrite comfortably inside it; the 10^6-AND whole circuit
/// cannot even hold its initial e-graph under it.
FlowParams scale_params() {
  FlowParams p;
  p.window_size = 4000;
  p.rewrite.max_iterations = 1;
  p.rewrite.max_enodes = 12000;
  p.rewrite.max_matches_per_rule = 500;
  p.rewrite.time_limit_s = 1e9;  // determinism: no wall-clock limit fires
  p.fraig_post = true;  // the SAT sweep is part of the per-window flow
  return p;
}

/// The windowed flow over `aig` under a fresh context (seed 0, so the
/// windows derive their seeds from sa.seed).
PartitionResult partition(const Aig& aig, const FlowParams& params,
                          const PartitionParams& run = {}) {
  FlowContext ctx;
  ctx.current = aig;
  ctx.params = params;
  return partition_optimize(ctx, run);
}

bool sim_equal(const Aig& a, const Aig& b) {
  Rng rng(42);
  return sim_probably_equal(a, b, rng, 32);
}

// --- micro benchmarks --------------------------------------------------------

void BM_AssignWindows(minibench::State& state) {
  Aig aig = tile_to_ands(tile_base(), 100000);
  for (auto _ : state) {
    WindowAssignment a = assign_windows(aig, 4000);
    minibench::DoNotOptimize(a.num_windows);
  }
  state.SetItemsProcessed(state.iterations() * aig.num_ands());
}
BENCHMARK(BM_AssignWindows);

void BM_BinaryAigerRoundTrip(minibench::State& state) {
  Aig aig = tile_to_ands(tile_base(), 100000);
  for (auto _ : state) {
    Aig back = read_aiger_binary(write_aiger_binary(aig));
    minibench::DoNotOptimize(back.num_ands());
  }
  state.SetItemsProcessed(state.iterations() * aig.num_ands());
}
BENCHMARK(BM_BinaryAigerRoundTrip);

// --- the scaling ladder ------------------------------------------------------

bool run_scaling(const char* json_path) {
  bool all_ok = true;
  Json rungs = Json::array();

  std::printf("\n-- partitioned saturation scaling ladder (window_size "
              "4000, doubled-adder tiles) --\n");

  const std::size_t kBigTarget = 1000000;
  Aig big;  // kept for the whole-circuit comparison below
  PartitionStats big_stats;

  for (std::size_t target : {std::size_t{20000}, std::size_t{100000},
                             kBigTarget}) {
    Aig aig = tile_to_ands(tile_base(), target);
    Timer timer;
    PartitionResult r = partition(aig, scale_params());
    double seconds = timer.seconds();

    bool completed = r.stats.completed;
    bool reduced = completed && r.stats.ands_after < r.stats.ands_before;
    // Every adopted window passed its own SAT gate inside partition_optimize;
    // the stitched whole must additionally agree under random simulation at
    // every rung, and at the smallest rung a monolithic SAT miter must prove
    // it outright (one shared conflict budget across the whole miter, so the
    // proof only stays tractable there — which is the point of this mode).
    bool equivalent = completed && sim_equal(aig, r.optimized);
    const char* cec_mode = "window-sat+simulation";
    if (completed && target <= 20000) {
      cec_mode = "window-sat+monolithic-sat";
      CecParams cp;
      cp.time_limit_s = 0.0;  // conflict-bounded only
      equivalent =
          equivalent &&
          cec(aig, r.optimized, cp).status == CecStatus::kEquivalent;
    }
    bool ok = completed && reduced && equivalent;
    all_ok = all_ok && ok;

    std::printf("%8zu ands | %5zu windows (%zu adopted, %zu qor-rej, %zu "
                "cec-rej) | %8zu ands out | %8.2f s | %s%s\n",
                r.stats.ands_before, r.stats.num_windows,
                r.stats.windows_adopted, r.stats.windows_rejected_qor,
                r.stats.windows_rejected_cec, r.stats.ands_after, seconds,
                cec_mode, ok ? "" : "  [FAIL]");

    Json entry = Json::object();
    entry["target_ands"] = static_cast<std::uint64_t>(target);
    entry["ands_before"] = static_cast<std::uint64_t>(r.stats.ands_before);
    entry["ands_after"] = static_cast<std::uint64_t>(r.stats.ands_after);
    entry["num_windows"] = static_cast<std::uint64_t>(r.stats.num_windows);
    entry["windows_adopted"] =
        static_cast<std::uint64_t>(r.stats.windows_adopted);
    entry["windows_rejected_qor"] =
        static_cast<std::uint64_t>(r.stats.windows_rejected_qor);
    entry["windows_rejected_cec"] =
        static_cast<std::uint64_t>(r.stats.windows_rejected_cec);
    entry["seconds"] = seconds;
    entry["cec_mode"] = std::string(cec_mode);
    entry["equivalent"] = equivalent;
    entry["reduced_ands"] = reduced;
    rungs.push_back(std::move(entry));

    if (target == kBigTarget) {
      big = std::move(aig);
      big_stats = r.stats;
    }
  }

  // --- whole-circuit saturation on the 10^6 circuit, same budget ------------
  // The same conversion/rewrite/extract body every window ran, on the whole
  // circuit, under the same RunnerParams. The initial e-graph already
  // exceeds the e-node budget, so the runner must halt at the node limit
  // without applying a single rewrite — the scaling wall this PR removes.
  Json whole = Json::object();
  {
    Pipeline pipeline;
    pipeline.add("EgraphConversion");
    pipeline.add("Rewrite");
    pipeline.add("EgraphConversion");
    Timer timer;
    FlowResult result = pipeline.run(big, scale_params());
    double seconds = timer.seconds();

    std::size_t applied = 0;
    for (std::size_t a : result.rewrite_report.rule_applications) applied += a;
    // The runner notices the blown budget during its first apply phase, so
    // a handful of rewrites may land before the halt — the gate is that it
    // stops at the node limit with nothing to show for it (no reduction).
    bool whole_stuck = result.rewrite_report.stop_reason ==
                           StopReason::kNodeLimit &&
                       result.final_aig.num_ands() >= big.num_ands();
    bool partition_beat_it = big_stats.completed &&
                             big_stats.ands_after < big_stats.ands_before;
    bool ok = whole_stuck && partition_beat_it;
    all_ok = all_ok && ok;

    std::printf("whole-circuit mode on %zu ands: stop=%s, %zu rewrites "
                "applied, %zu ands out, %.2f s | partitioned: %zu ands out"
                "%s\n",
                big.num_ands(),
                stop_reason_name(result.rewrite_report.stop_reason), applied,
                result.final_aig.num_ands(), seconds, big_stats.ands_after,
                ok ? "" : "  [FAIL]");

    whole["stop_reason"] =
        std::string(stop_reason_name(result.rewrite_report.stop_reason));
    whole["rewrites_applied"] = static_cast<std::uint64_t>(applied);
    whole["ands_after"] =
        static_cast<std::uint64_t>(result.final_aig.num_ands());
    whole["seconds"] = seconds;
    whole["halted_without_progress"] = whole_stuck;
    whole["partition_completed_and_improved"] = partition_beat_it;
  }

  // --- checkpoint-resume determinism at the 10^5 rung -----------------------
  Json resume = Json::object();
  {
    Aig aig = tile_to_ands(tile_base(), 100000);
    FlowParams params = scale_params();

    PartitionResult straight = partition(aig, params);
    std::string want = write_aiger_binary(straight.optimized);

    const char* ckpt = "BENCH_scale.ckpt";
    std::remove(ckpt);
    params.checkpoint_path = ckpt;
    PartitionParams killed;
    killed.stop_after_chunks = 1;
    (void)partition(aig, params, killed);

    Timer timer;
    PartitionResult resumed = partition(aig, params);
    double seconds = timer.seconds();
    std::remove(ckpt);

    bool bytes_equal = resumed.stats.completed &&
                       write_aiger_binary(resumed.optimized) == want;
    bool qor_equal = resumed.stats.ands_after == straight.stats.ands_after &&
                     resumed.stats.windows_adopted ==
                         straight.stats.windows_adopted;
    bool ok = bytes_equal && qor_equal;
    all_ok = all_ok && ok;

    std::printf("checkpoint resume: %zu/%zu chunks replayed, netlist %s, "
                "qor %s, %.2f s%s\n",
                resumed.stats.chunks_resumed, resumed.stats.chunks_total,
                bytes_equal ? "bit-identical" : "DIVERGED",
                qor_equal ? "equal" : "DIVERGED", seconds,
                ok ? "" : "  [FAIL]");

    resume["chunks_resumed"] =
        static_cast<std::uint64_t>(resumed.stats.chunks_resumed);
    resume["chunks_total"] =
        static_cast<std::uint64_t>(resumed.stats.chunks_total);
    resume["netlist_bit_identical"] = bytes_equal;
    resume["qor_equal"] = qor_equal;
    resume["seconds"] = seconds;
  }

  Json doc = Json::object();
  doc["benchmark"] = "partitioned-saturation-scaling";
  doc["window_size"] = static_cast<std::uint64_t>(scale_params().window_size);
  doc["rungs"] = std::move(rungs);
  doc["whole_circuit_mode"] = std::move(whole);
  doc["checkpoint_resume"] = std::move(resume);
  doc["all_checks_passed"] = all_ok;

  std::ofstream file(json_path);
  file << doc.dump(2) << "\n";
  std::printf("wrote %s\n", json_path);
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  const char* json_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  return run_scaling(json_path) ? 0 : 1;
}
