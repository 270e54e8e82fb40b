#pragma once
// The three workloads and what they share: run options, the report each
// returns, the exact counters that must repeat bit for bit, and the
// helpers that turn spans and counters into named metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "summary.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time; passes stop once it is used up
  bool trace = false;
  std::string out_dir = ".";  // trace files go here
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one run of a workload hands back to main().
struct RunReport {
  /// Any entry makes the run incorrect (printed to stderr, exit code 1).
  std::vector<std::string> errors;
  FailureCount failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  Metrics metrics;
  /// Canonical text of the QoR and exact counters of one pass; equal in
  /// traced and untraced runs and across runs with the same seed.
  std::string exact;
};

RunReport run_epfl_emorphic(const Options& options);
RunReport run_scale_partition(const Options& options);
RunReport run_service_mixed(const Options& options);

/// Set-up is timed this many times per run and reported as the median: it
/// is milliseconds long, so a single sample is mostly scheduler noise.
constexpr int kSetupReps = 11;

/// Verification settings every workload shares: a fixed conflict budget
/// and no wall-clock limit, so the verdict never depends on machine load.
emorphic::CecParams bench_cec_params();

/// A saturation time limit far beyond any run; the determinism guard
/// rejects a run whose rewriting nevertheless stopped on it.
constexpr double kNoRewriteTimeLimit = 1e9;

/// Determinism guard, configuration half: appends an error when `params`
/// would let a wall-clock limit decide a result (saturation time limit
/// within reach, or a CEC time limit). The other half checks each result's
/// stop reasons.
void check_no_wall_clock_limits(const emorphic::FlowParams& params,
                                std::vector<std::string>* errors);

/// Counters that repeat exactly for a given seed, summed over the flows
/// of one pass. Filled from a FlowResult, or from a FlowContext after its
/// last stage (the two share these field names).
struct FlowCounters {
  std::uint64_t flows = 0;
  std::uint64_t iterations = 0;
  std::uint64_t matches = 0;
  std::uint64_t applied = 0;
  std::uint64_t enodes = 0;
  std::uint64_t node_limit_stops = 0;
  std::uint64_t time_limit_stops = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t windows = 0;
  std::uint64_t windows_adopted = 0;
  std::uint64_t windows_rejected_qor = 0;
  std::uint64_t windows_rejected_cec = 0;
  std::uint64_t proven = 0;
  std::uint64_t undecided = 0;
  std::uint64_t refuted = 0;

  template <class Result>
  void add(const Result& r, bool verified) {
    ++flows;
    iterations += r.rewrite_report.iterations.size();
    for (const emorphic::IterationStats& it : r.rewrite_report.iterations) {
      matches += it.matches;
      applied += it.applied;
    }
    enodes += r.egraph_enodes;
    if (!r.rewrite_report.iterations.empty()) {
      node_limit_stops +=
          r.rewrite_report.stop_reason == emorphic::StopReason::kNodeLimit;
      time_limit_stops +=
          r.rewrite_report.stop_reason == emorphic::StopReason::kTimeLimit;
    }
    evaluations += r.sa.evaluations;
    memo_hits += r.sa.qor_cache_hits;
    memo_misses += r.sa.qor_cache_misses;
    windows += r.partition_stats.num_windows;
    windows_adopted += r.partition_stats.windows_adopted;
    windows_rejected_qor += r.partition_stats.windows_rejected_qor;
    windows_rejected_cec += r.partition_stats.windows_rejected_cec;
    if (verified) {
      proven += r.verify_status == emorphic::CecStatus::kEquivalent;
      undecided += r.verify_status == emorphic::CecStatus::kUndecided;
      refuted += r.verify_status == emorphic::CecStatus::kNotEquivalent;
    }
  }

  /// The counters that must repeat exactly. The SA memo counters
  /// (evaluations, memo hits/misses) are left out: chains that share one
  /// memo race between its lookup and its insert, so they vary with thread
  /// interleaving even though the extraction result does not.
  std::string exact_text() const;
};

/// Outcome of a finished flow from its verification verdict.
Outcome outcome_of(emorphic::CecStatus status);

/// Per-layer metrics every workload reports (zero where a layer does no
/// work on it), filled from the spans of `passes` passes and one pass's
/// counters. Service-only and set-up metrics are left to the caller.
Metrics layer_metrics(const Tracer& tracer, int passes,
                      const FlowCounters& counters);

/// Stage spans (trace.stage_coverage) must cover at least this share of
/// flow_s on the in-process workloads, or the breakdown is missing a layer.
constexpr double kMinStageCoverage = 0.95;

/// Whether to run another pass: one more of the last pass's length must
/// still fit into `seconds`. Callers always run at least one pass.
bool another_pass_fits(double elapsed_s, double last_pass_s, double seconds);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Write the chrome trace and per-layer summary of a traced run.
void write_trace_files(const Tracer& tracer, const Options& options);

}  // namespace perfbench
