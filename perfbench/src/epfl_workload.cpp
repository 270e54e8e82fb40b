// epfl_emorphic: the paper's Table II flow over the ten EPFL-like circuits,
// one at a time, in quality mode (4 SA chains), each result verified under
// the shared conflict budget. The only workload where every whole-circuit
// layer does real work. The seed shuffles the sweep order; the SA seed
// stays the flow's default, so QoR and verdicts are those of the paper
// flow and repeat exactly whatever the order.

#include <iomanip>
#include <memory>
#include <sstream>

#include "aig/sim.hpp"
#include "benchgen/epfl.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emorphic;

namespace {

/// The paper-reproduction settings (Sec. IV-A: 5 rewrite iterations, SA
/// with 4 annealing iterations, T1 = 2000, 4 chains) at laptop-scale
/// e-graph limits, with the budget cut that table2_qor and fig9_breakdown
/// apply above 3000 ANDs. Time limits are replaced by the determinism
/// settings: no saturation time limit, conflict-bounded CEC.
FlowParams paper_params(const Aig& circuit) {
  FlowParams p;
  p.rounds = 4;
  p.rewrite.max_iterations = 5;
  p.rewrite.max_enodes = 60000;
  p.rewrite.time_limit_s = kNoRewriteTimeLimit;
  p.rewrite.max_matches_per_rule = 4000;
  p.sa.iterations = 4;
  p.sa.initial_temperature = 2000.0;
  p.sa.moves_per_iteration = 3;
  p.sa.num_threads = 4;
  p.verify = true;
  p.cec_params = bench_cec_params();
  if (circuit.num_ands() > 3000) {
    p.rewrite.max_enodes = 40000;
    p.sa.moves_per_iteration = 2;
  }
  return p;
}

std::vector<std::string> sweep_order(std::uint64_t seed) {
  std::vector<std::string> names = epfl_names();
  Rng rng(seed);
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.next_below(i)]);
  }
  return names;
}

struct Circuit {
  std::string name;
  Aig aig;
};

struct PassResult {
  double seconds = 0.0;
  std::vector<FlowResult> results;
  FlowCounters counters;
};

}  // namespace

RunReport run_epfl_emorphic(const Options& options) {
  RunReport report;

  // --- set-up: generate the circuits, build the shared NPN matcher -------
  std::vector<Circuit> circuits;
  std::shared_ptr<const Matcher> matcher;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer setup;
    circuits.clear();
    for (const std::string& name : sweep_order(options.seed)) {
      circuits.push_back({name, make_epfl(name)});
    }
    generate_s.push_back(setup.seconds());
    matcher = std::make_shared<const Matcher>(CellLibrary::asap7_like());
    setup_s.push_back(setup.seconds());
  }

  for (const Circuit& circuit : circuits) {
    check_no_wall_clock_limits(paper_params(circuit.aig), &report.errors);
  }
  if (!report.errors.empty()) return report;

  // --- measured passes -----------------------------------------------------
  Tracer tracer;
  std::vector<PassResult> passes;
  Timer measured;
  do {
    PassResult pass;
    const Tracer::SpanId pass_span =
        options.trace ? tracer.begin("bench.pass", "") : -1;
    Timer pass_timer;
    for (const Circuit& circuit : circuits) {
      FlowContext ctx;
      ctx.params = paper_params(circuit.aig);
      ctx.input = circuit.aig;
      ctx.matcher = matcher;
      Pipeline pipeline = Pipeline::emorphic(ctx.params);
      std::unique_ptr<TimedEvaluator> evaluator;
      Tracer::SpanId flow_span = -1;
      if (options.trace) {
        evaluator = std::make_unique<TimedEvaluator>(
            matcher, ctx.params.area_weight, &tracer, circuit.name);
        ctx.evaluator = evaluator.get();
        pipeline = traced_pipeline(
            pipeline, &tracer,
            [&circuit](const FlowContext&) { return circuit.name; }, {});
        flow_span = tracer.begin("flow.run", circuit.name);
      }
      pass.results.push_back(pipeline.run(ctx));
      if (options.trace) tracer.end(flow_span);
    }
    pass.seconds = pass_timer.seconds();
    if (options.trace) tracer.end(pass_span);
    passes.push_back(std::move(pass));
  } while (another_pass_fits(measured.seconds(), passes.back().seconds,
                             options.seconds));
  const double rss_mb = peak_rss_mb();

  // --- checks (untimed) ----------------------------------------------------
  std::vector<double> pass_s, area, delay, ands;
  std::string first_exact;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    PassResult& pass = passes[p];
    pass_s.push_back(pass.seconds);
    std::ostringstream exact;
    exact << std::setprecision(17);
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const Circuit& circuit = circuits[i];
      const FlowResult& r = pass.results[i];
      pass.counters.add(r, true);
      if (r.cancelled || r.stop_reason != FlowStopReason::kNone) {
        report.errors.push_back(circuit.name + ": a flow stop signal fired");
        report.failures.add(Outcome::kCancelled);
        continue;
      }
      if (r.rewrite_report.stop_reason == StopReason::kTimeLimit) {
        report.errors.push_back(circuit.name +
                                ": saturation stopped on its time limit");
      }
      Rng rng(options.seed);
      if (!sim_probably_equal(circuit.aig, r.final_aig, rng)) {
        report.errors.push_back(circuit.name +
                                ": output differs from input in simulation");
        report.failures.add(Outcome::kRefuted);
        continue;
      }
      report.failures.add(outcome_of(r.verify_status));
      exact << circuit.name << " area=" << r.qor.area
            << " delay=" << r.qor.delay << " lev=" << r.qor.lev
            << " ands=" << r.final_aig.num_ands()
            << " verify=" << cec_status_name(r.verify_status) << "\n";
      if (p == 0) {
        area.push_back(r.qor.area);
        delay.push_back(r.qor.delay);
        ands.push_back(static_cast<double>(r.final_aig.num_ands()));
      }
    }
    exact << pass.counters.exact_text() << "\n";
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
    m["jobs_per_s"] = {static_cast<double>(circuits.size()) / flow_s, "1/s"};
    m["failed_ratio"] = {report.failures.failed_ratio(), "ratio"};
    m["area_geomean"] = {geomean(area), "um2"};
    m["delay_geomean"] = {geomean(delay), "ps"};
    m["ands_after"] = {geomean(ands), "count"};
    m["peak_rss_mb"] = {rss_mb, "MiB"};
    return report;
  }

  const int n = static_cast<int>(passes.size());
  report.metrics = layer_metrics(tracer, n, passes.front().counters);
  report.metrics["benchgen.generate_s"] = {median(generate_s), "s"};
  report.metrics["trace.flow_s"] = {flow_s, "s"};
  if (report.metrics["trace.stage_coverage"].value < kMinStageCoverage) {
    report.errors.push_back("stage spans cover less than 95% of flow_s");
  }
  write_trace_files(tracer, options);
  return report;
}

}  // namespace perfbench
