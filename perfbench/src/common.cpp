#include <sys/resource.h>

#include <sstream>

#include "workloads.hpp"

namespace perfbench {

using emorphic::CecStatus;

emorphic::CecParams bench_cec_params() {
  emorphic::CecParams p;
  p.conflict_limit = 20000;
  p.time_limit_s = 0.0;
  return p;
}

void check_no_wall_clock_limits(const emorphic::FlowParams& params,
                                std::vector<std::string>* errors) {
  if (params.rewrite.time_limit_s < kNoRewriteTimeLimit) {
    errors->push_back("saturation has a reachable time limit");
  }
  if (params.cec_params.time_limit_s != 0.0) {
    errors->push_back("CEC has a wall-clock time limit");
  }
}

std::string FlowCounters::exact_text() const {
  std::ostringstream os;
  os << "flows=" << flows << " iterations=" << iterations
     << " matches=" << matches << " applied=" << applied
     << " enodes=" << enodes << " node_limit_stops=" << node_limit_stops
     << " windows=" << windows << " adopted=" << windows_adopted
     << " rejected_qor=" << windows_rejected_qor
     << " rejected_cec=" << windows_rejected_cec << " proven=" << proven
     << " undecided=" << undecided << " refuted=" << refuted;
  return os.str();
}

Outcome outcome_of(CecStatus status) {
  switch (status) {
    case CecStatus::kEquivalent:
      return Outcome::kProven;
    case CecStatus::kNotEquivalent:
      return Outcome::kRefuted;
    case CecStatus::kUndecided:
      break;
  }
  return Outcome::kUndecided;
}

namespace {

/// Share of the traced passes' wall time covered by stage spans (the
/// children of "flow.run" spans); 0 when no pass was traced.
double stage_coverage(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  double staged = 0.0;
  double passes = 0.0;
  for (const Span& s : spans) {
    if (s.name == "bench.pass") passes += s.end_s - s.start_s;
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == "flow.run") {
      staged += s.end_s - s.start_s;
    }
  }
  return passes > 0.0 ? staged / passes : 0.0;
}

}  // namespace

Metrics layer_metrics(const Tracer& tracer, int passes,
                      const FlowCounters& c) {
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  auto span = [&](const char* name) {
    auto it = totals.find(name);
    return it != totals.end() ? it->second : SpanTotals{};
  };
  const double n = passes > 0 ? static_cast<double>(passes) : 1.0;
  auto per_pass = [&](const char* name) { return span(name).total_s / n; };
  auto count = [](std::uint64_t v) {
    return Metric{static_cast<double>(v), "count"};
  };
  auto ratio = [](double num, double den) {
    return Metric{den > 0.0 ? num / den : 0.0, "ratio"};
  };

  Metrics m;
  m["opt.resyn_s"] = {per_pass("opt.resyn"), "s"};
  m["opt.partition_s"] = {per_pass("opt.partition"), "s"};
  m["opt.partition_cpu_per_wall"] = {
      cpu_per_wall(span("opt.partition").cpu_s, span("opt.partition").total_s),
      "ratio"};
  m["opt.windows"] = count(c.windows);
  m["opt.windows_adopted"] = count(c.windows_adopted);
  m["opt.windows_rejected_qor"] = count(c.windows_rejected_qor);
  m["opt.windows_rejected_cec"] = count(c.windows_rejected_cec);

  m["flow.conversion_s"] = {per_pass("flow.conversion"), "s"};
  // A flow.run span's self time is the pipeline's time outside every stage.
  m["flow.untimed_s"] = {span("flow.run").self_s / n, "s"};
  m["flow.warm_qor_hit_ratio"] = {0.0, "ratio"};

  m["egraph.rewrite_s"] = {per_pass("egraph.rewrite"), "s"};
  m["egraph.iterations"] = count(c.iterations);
  m["egraph.matches"] = count(c.matches);
  m["egraph.applied"] = count(c.applied);
  m["egraph.applied_per_match"] = ratio(static_cast<double>(c.applied),
                                        static_cast<double>(c.matches));
  m["egraph.enodes"] = count(c.enodes);
  m["egraph.node_limit_stops"] = count(c.node_limit_stops);

  m["extract.sa_s"] = {per_pass("extract.sa"), "s"};
  m["extract.sa_cpu_per_wall"] = {
      cpu_per_wall(span("extract.sa").cpu_s, span("extract.sa").total_s),
      "ratio"};
  m["extract.evaluations"] = count(c.evaluations);
  m["extract.memo_hit_ratio"] =
      ratio(static_cast<double>(c.memo_hits),
            static_cast<double>(c.memo_hits + c.memo_misses));

  const SpanTotals eval = span("mapper.eval");
  m["mapper.eval_s"] = {eval.total_s / n, "s"};
  m["mapper.eval_ms"] = {
      eval.count > 0 ? 1e3 * eval.total_s / static_cast<double>(eval.count)
                     : 0.0,
      "ms"};
  m["mapper.techmap_s"] = {per_pass("mapper.techmap"), "s"};

  m["cec.verify_s"] = {per_pass("cec.verify"), "s"};
  m["cec.proven"] = count(c.proven);
  m["cec.undecided"] = count(c.undecided);
  m["cec.refuted"] = count(c.refuted);
  m["trace.stage_coverage"] = {stage_coverage(tracer), "ratio"};

  // Measured on service_mixed only; it overwrites these.
  m["service.admit_ms"] = {0.0, "ms"};
  m["service.queue_ms"] = {0.0, "ms"};
  m["service.result_cache_hits"] = {0.0, "count"};
  m["service.rejected"] = {0.0, "count"};
  m["run_p50_ms"] = {0.0, "ms"};
  m["run_p90_ms"] = {0.0, "ms"};
  m["hit_p50_ms"] = {0.0, "ms"};
  return m;
}

bool another_pass_fits(double elapsed_s, double last_pass_s, double seconds) {
  return elapsed_s + last_pass_s <= seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_trace_files(const Tracer& tracer, const Options& options) {
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  tracer.write_chrome_trace(stem + ".trace.json");
  tracer.write_summary(stem + ".layers.json");
}

}  // namespace perfbench
