// Reproduces Table II: QoR and runtime comparison between the baseline
// delay-oriented flow [22] and E-morphic (without and with the ML cost
// model) on the ten EPFL-like circuits.
//
// Paper reference (full-size EPFL, dual-Xeon server): E-morphic w/o ML
// saves 12.54% area and 7.29% delay at the geomean over the baseline; the
// ML mode trades some of that back for ~28% less runtime. Absolute numbers
// here differ (scaled circuits, synthetic library); the reproduction target
// is the *shape*: delay reduced on (nearly) all designs, area saved on
// average, ML mode faster than exact mode.

#include <cstdio>

#include "bench_util.hpp"

using namespace emorphic;
using namespace emorphic::bench;

namespace {

struct Row {
  std::string name;
  FlowQor base, em, ml;
  CecStatus em_ok, ml_ok;
};

MlCostModel train_shared_model(const std::vector<std::string>& names) {
  // The OpenABC-D substitution: variants of every benchmark, labelled by
  // the exact mapper, one shared model (Sec. IV-D).
  Dataset all;
  for (const auto& name : names) {
    Aig circuit = make_epfl(name);
    DatasetParams dp;
    dp.variants_per_circuit = circuit.num_ands() > 2500 ? 6 : 16;
    dp.rewrite.max_iterations = 3;
    dp.rewrite.max_enodes = 20000;
    dp.rewrite.time_limit_s = 3.0;
    dp.mapping.area_recovery = false;
    dp.mapping.num_cuts = 4;
    all.append(generate_variants(circuit, CellLibrary::asap7_like(), dp));
  }
  MlpParams mp;
  mp.epochs = 150;
  MlCostModel model(mp);
  model.train(all.features, all.delays, all.areas);
  std::printf("[setup] ML cost model trained on %zu structural variants\n\n",
              all.size());
  return model;
}

}  // namespace

int main() {
  std::printf("=== Table II: QoR and runtime, baseline vs. E-morphic ===\n\n");
  const auto names = epfl_names();
  MlCostModel ml_model = train_shared_model(names);

  std::vector<Row> rows;
  for (const auto& name : names) {
    Aig circuit = make_epfl(name);
    FlowParams params = paper_flow_params();
    // Scale the e-graph budget with circuit size to keep runtimes sane.
    if (circuit.num_ands() > 3000) {
      params.rewrite.max_enodes = 40000;
      params.sa.moves_per_iteration = 2;
    }

    Row row;
    row.name = name;
    FlowResult base = Pipeline::baseline(params).run(circuit, params);
    row.base = base.qor;

    FlowResult em = Pipeline::emorphic(params).run(circuit, params);
    row.em = em.qor;
    row.em_ok = cec(circuit, em.final_aig, CecParams{8, 50000, 1}).status;

    FlowParams ml_params = params;
    ml_params.sa.num_threads = 6;  // runtime-prioritized mode (Sec. IV-A)
    FlowContext ml_ctx;
    ml_ctx.params = ml_params;
    ml_ctx.input = circuit;
    ml_ctx.evaluator = &ml_model;
    FlowResult ml = Pipeline::emorphic(ml_params).run(ml_ctx);
    row.ml = ml.qor;
    row.ml_ok = cec(circuit, ml.final_aig, CecParams{8, 50000, 1}).status;

    rows.push_back(row);
    std::printf("[done] %-10s base delay %8.1f | em %8.1f | ml %8.1f\n",
                name.c_str(), row.base.delay, row.em.delay, row.ml.delay);
  }

  std::printf("\n%-10s | %29s | %29s | %29s\n", "", "SOP Balancing Baseline",
              "+ E-morphic (w/o ML)", "+ E-morphic (w/ ML)");
  std::printf("%-10s | %9s %9s %4s %8s | %9s %9s %4s %8s | %9s %9s %4s %8s\n",
              "Circuit", "Area", "Delay", "lev", "time(s)", "Area", "Delay",
              "lev", "time(s)", "Area", "Delay", "lev", "time(s)");
  print_rule();
  std::vector<double> ab, db, tb, ae, de, te, am, dm, tm;
  for (const Row& r : rows) {
    std::printf(
        "%-10s | %9.1f %9.1f %4u %8.2f | %9.1f %9.1f %4u %8.2f | %9.1f %9.1f "
        "%4u %8.2f\n",
        r.name.c_str(), r.base.area, r.base.delay, r.base.lev, r.base.seconds,
        r.em.area, r.em.delay, r.em.lev, r.em.seconds, r.ml.area, r.ml.delay,
        r.ml.lev, r.ml.seconds);
    ab.push_back(r.base.area);
    db.push_back(r.base.delay);
    tb.push_back(r.base.seconds);
    ae.push_back(r.em.area);
    de.push_back(r.em.delay);
    te.push_back(r.em.seconds);
    am.push_back(r.ml.area);
    dm.push_back(r.ml.delay);
    tm.push_back(r.ml.seconds);
  }
  print_rule();
  std::printf(
      "%-10s | %9.1f %9.1f %4s %8.2f | %9.1f %9.1f %4s %8.2f | %9.1f %9.1f "
      "%4s %8.2f\n",
      "GEOMEAN", geomean(ab), geomean(db), "-", geomean(tb), geomean(ae),
      geomean(de), "-", geomean(te), geomean(am), geomean(dm), "-",
      geomean(tm));
  std::printf("\nImprovement of E-morphic (w/o ML) over baseline:\n");
  std::printf("  area:  %+6.2f%%  (paper: +12.54%% saving)\n",
              100.0 * (1.0 - geomean(ae) / geomean(ab)));
  std::printf("  delay: %+6.2f%%  (paper: +7.29%% reduction)\n",
              100.0 * (1.0 - geomean(de) / geomean(db)));
  std::printf("Runtime saving of ML mode vs exact mode: %+6.2f%%  (paper: ~28%%)\n",
              100.0 * (1.0 - geomean(tm) / geomean(te)));

  std::printf("\nEquivalence checking (cec):\n");
  for (const Row& r : rows) {
    std::printf("  %-10s w/o ML: %-14s w/ ML: %s\n", r.name.c_str(),
                cec_status_name(r.em_ok), cec_status_name(r.ml_ok));
  }
  return 0;
}
