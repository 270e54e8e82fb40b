// scale_partition: the partitioned scaling mode. A 4*10^4-AND tiling of
// doubled 6-bit adders goes through windowed saturation (many small
// e-graphs on the batch pool instead of one large one), then one
// whole-circuit CEC. ResynRounds and cell mapping are bypassed.

#include <iomanip>
#include <memory>
#include <sstream>

#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/doubling.hpp"
#include "benchgen/scale.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emorphic;

namespace {

constexpr std::size_t kTargetAnds = 40000;

/// Window size 1000 with bench/micro_scale's per-window caps, a SAT sweep
/// per window (fraig_post) and the shared CEC budget for both the window
/// gate and the final check.
FlowParams scale_params() {
  FlowParams p;
  p.partition = true;
  p.window_size = 1000;
  p.fraig_post = true;
  p.rewrite.max_iterations = 1;
  p.rewrite.max_enodes = 12000;
  p.rewrite.max_matches_per_rule = 500;
  p.rewrite.time_limit_s = kNoRewriteTimeLimit;
  p.verify = true;
  p.cec_params = bench_cec_params();
  return p;
}

}  // namespace

RunReport run_scale_partition(const Options& options) {
  RunReport report;
  const std::string job = "scale";

  Aig input;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer setup;
    input = tile_to_ands(doubled(make_adder(6)), kTargetAnds);
    setup_s.push_back(setup.seconds());
  }

  check_no_wall_clock_limits(scale_params(), &report.errors);
  if (!report.errors.empty()) return report;

  Tracer tracer;
  std::vector<FlowResult> results;
  std::vector<double> pass_s;
  Timer measured;
  do {
    FlowContext ctx;
    ctx.params = scale_params();
    ctx.input = input;
    ctx.seed = options.seed;
    Pipeline pipeline = Pipeline::emorphic(ctx.params);
    Tracer::SpanId pass_span = -1;
    Tracer::SpanId flow_span = -1;
    if (options.trace) {
      pipeline = traced_pipeline(
          pipeline, &tracer, [&job](const FlowContext&) { return job; }, {});
      pass_span = tracer.begin("bench.pass", "");
      flow_span = tracer.begin("flow.run", job);
    }
    Timer pass_timer;
    results.push_back(pipeline.run(ctx));
    pass_s.push_back(pass_timer.seconds());
    if (options.trace) {
      tracer.end(flow_span);
      tracer.end(pass_span);
    }
  } while (another_pass_fits(measured.seconds(), pass_s.back(),
                             options.seconds));
  const double rss_mb = peak_rss_mb();

  // --- checks (untimed) ----------------------------------------------------
  // The partitioned flow reports structure QoR only; map the output with
  // the final-map settings for area and delay.
  const auto matcher = std::make_shared<const Matcher>(CellLibrary::asap7_like());
  FlowCounters counters;
  MappedQor mapped;
  std::string first_exact;
  for (std::size_t p = 0; p < results.size(); ++p) {
    const FlowResult& r = results[p];
    FlowCounters pass_counters;
    pass_counters.add(r, true);
    if (r.cancelled || r.stop_reason != FlowStopReason::kNone ||
        !r.partition_stats.completed) {
      report.errors.push_back("a flow stop signal fired");
      report.failures.add(Outcome::kCancelled);
      continue;
    }
    Rng rng(options.seed);
    if (!sim_probably_equal(input, r.final_aig, rng)) {
      report.errors.push_back("output differs from input in simulation");
      report.failures.add(Outcome::kRefuted);
      continue;
    }
    report.failures.add(outcome_of(r.verify_status));
    if (p == 0) {
      counters = pass_counters;
      mapped = map_qor(r.final_aig, *matcher, MapperParams{});
    }
    std::ostringstream exact;
    exact << std::setprecision(17);
    exact << "ands_before=" << r.partition_stats.ands_before
          << " ands_after=" << r.final_aig.num_ands()
          << " lev=" << r.qor.lev
          << " verify=" << cec_status_name(r.verify_status) << "\n"
          << pass_counters.exact_text() << "\n";
    if (p == 0) {
      first_exact = exact.str();
    } else if (exact.str() != first_exact) {
      report.errors.push_back("pass " + std::to_string(p) +
                              " differs from pass 0 (same seed)");
    }
  }
  report.exact = first_exact;
  if (!report.errors.empty()) return report;

  const double flow_s = median(pass_s);
  if (!options.trace) {
    Metrics& m = report.metrics;
    m["setup_s"] = {median(setup_s), "s"};
    m["flow_s"] = {flow_s, "s"};
    m["jobs_per_s"] = {1.0 / flow_s, "1/s"};
    m["failed_ratio"] = {report.failures.failed_ratio(), "ratio"};
    m["area_geomean"] = {mapped.area, "um2"};
    m["delay_geomean"] = {mapped.delay, "ps"};
    m["ands_after"] = {static_cast<double>(results.front().final_aig.num_ands()),
                       "count"};
    m["peak_rss_mb"] = {rss_mb, "MiB"};
    return report;
  }

  report.metrics = layer_metrics(tracer, static_cast<int>(results.size()),
                                 counters);
  report.metrics["benchgen.generate_s"] = {median(setup_s), "s"};
  report.metrics["trace.flow_s"] = {flow_s, "s"};
  if (report.metrics["trace.stage_coverage"].value < kMinStageCoverage) {
    report.errors.push_back("stage spans cover less than 95% of flow_s");
  }
  write_trace_files(tracer, options);
  return report;
}

}  // namespace perfbench
