// Choice-aware vs. single-extraction technology mapping on identical
// rewritten e-graphs: the quantitative case for exporting the whole
// equivalence class instead of the one structure extraction committed to.
//
// Per benchgen circuit the harness builds an e-graph, runs a few
// saturation iterations, extracts once (greedy depth — deterministic), and
// then maps the same extraction twice:
//   * plain:  map_to_cells over the exported representative cone alone
//             (ring_cap = 0 — exactly the single extraction every flow
//             mapped before the choicemap stage existed);
//   * choice: egraph_to_choice_aig (SAT-verified rings of alternative
//             structures per class) + the choice-aware map_to_cells.
// Both runs see the identical base network, node numbering, and area-flow
// reference estimates, so the only difference is the choice rings — any
// QoR delta is attributable to cross-variant matching, not to tie-break
// noise. The raw cross-variant numbers are recorded as-is; the *adopted*
// cover is the flow's Pareto-gated one (map_with_choices_gated, exactly
// what the choicemap stage ships), under which choices can only improve
// the netlist. BENCH_choicemap.json records mapped area/delay (raw and
// adopted), export/mapping wall clock, and ring statistics. The exit code
// enforces:
//   * cec proves the plain, raw-choice, and adopted netlists equivalent to
//     the input circuit,
//   * the adopted cover's area is <= plain mapping's on EVERY circuit and
//     strictly better on at least one (with its delay never worse — that
//     is the gate's contract),
//   * at least one circuit exports a non-empty ring set (the comparison is
//     meaningless otherwise).
// The mapping-time overhead and the raw delay delta are recorded, not
// asserted (overhead is machine-dependent; raw realized delay after area
// recovery is only bounded by the pass-1 target, so it can wiggle within
// that bound — which is precisely why the gate exists).

#include "minibench.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "cec/cec.hpp"
#include "egraph/choices.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/choice_export.hpp"
#include "mapper/tech_mapper.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace emorphic;

/// One rewritten e-graph + committed extraction, shared by both mappings.
struct Workload {
  CircuitEGraph ce;
  Extraction solution{0};
  Aig plain_aig;  // the representative cone alone (ring_cap = 0 export)
};

Workload build_workload(const Aig& aig) {
  Workload w;
  w.ce = aig_to_egraph(aig);
  RunnerParams params;
  params.max_iterations = 4;
  params.max_enodes = 30000;
  params.max_matches_per_rule = 5000;
  run_rewriting(w.ce.egraph, make_logic_rules(), params);
  w.solution = greedy_extract(w.ce.egraph, CostModel{CostKind::kDepth});
  // ring_cap = 0 exports the bare committed extraction with node numbering
  // identical to the full export's base cone: the fair plain baseline.
  ChoiceExportParams no_choices;
  no_choices.ring_cap = 0;
  w.plain_aig = egraph_to_choice_aig(w.ce, w.solution, no_choices).aig;
  return w;
}

// --- micro timing hooks ------------------------------------------------------

void BM_ChoiceExportAdder(minibench::State& state) {
  Aig aig = make_adder(static_cast<unsigned>(state.range(0)));
  Workload w = build_workload(aig);
  for (auto _ : state) {
    ChoiceAig caig = egraph_to_choice_aig(w.ce, w.solution);
    minibench::DoNotOptimize(caig.choices.num_alts());
  }
}
BENCHMARK(BM_ChoiceExportAdder)->Arg(8);

void BM_ChoiceMapAdder(minibench::State& state) {
  Aig aig = make_adder(static_cast<unsigned>(state.range(0)));
  Workload w = build_workload(aig);
  ChoiceAig caig = egraph_to_choice_aig(w.ce, w.solution);
  Matcher matcher(CellLibrary::asap7_like());
  MapperWorkspace workspace;
  for (auto _ : state) {
    MappedNetlist netlist = map_to_cells(caig, matcher, {}, &workspace);
    minibench::DoNotOptimize(netlist.num_gates());
  }
}
BENCHMARK(BM_ChoiceMapAdder)->Arg(8);

void BM_PlainMapAdder(minibench::State& state) {
  Aig aig = make_adder(static_cast<unsigned>(state.range(0)));
  Workload w = build_workload(aig);
  Matcher matcher(CellLibrary::asap7_like());
  MapperWorkspace workspace;
  for (auto _ : state) {
    MappedNetlist netlist = map_to_cells(w.plain_aig, matcher, {}, &workspace);
    minibench::DoNotOptimize(netlist.num_gates());
  }
}
BENCHMARK(BM_PlainMapAdder)->Arg(8);

// --- the comparison harness --------------------------------------------------

struct CircuitCase {
  std::string name;
  Aig aig;
};

bool run_comparison(const char* json_path) {
  std::vector<CircuitCase> cases;
  cases.push_back({"adder8", make_adder(8)});
  cases.push_back({"adder16", make_adder(16)});
  cases.push_back({"multiplier4", make_multiplier(4)});
  cases.push_back({"square5", make_square(5)});
  cases.push_back({"arbiter4", make_arbiter(4)});

  std::printf(
      "\n-- technology mapping: single extraction vs. choice-annotated "
      "e-class export (identical e-graphs) --\n");

  Matcher matcher(CellLibrary::asap7_like());
  MapperParams map_params;

  bool all_ok = true;
  bool any_strictly_better = false;
  bool any_rings = false;
  Json circuits = Json::array();
  for (CircuitCase& c : cases) {
    Workload w = build_workload(c.aig);

    Timer plain_timer;
    MappedNetlist plain = map_to_cells(w.plain_aig, matcher, map_params);
    double plain_map_s = plain_timer.seconds();

    ChoiceExportStats stats;
    Timer export_timer;
    ChoiceAig caig = egraph_to_choice_aig(w.ce, w.solution, {}, &stats);
    double export_s = export_timer.seconds();

    Timer choice_timer;
    MappedNetlist choice = map_to_cells(caig, matcher, map_params);
    double choice_map_s = choice_timer.seconds();

    // What the flow ships: the Pareto-gated cover.
    ChoiceMapOutcome adopted = map_with_choices_gated(caig, matcher, map_params);

    CecStatus plain_cec = cec(c.aig, plain.to_aig()).status;
    CecStatus choice_cec = cec(c.aig, choice.to_aig()).status;
    CecStatus adopted_cec = cec(c.aig, adopted.netlist.to_aig()).status;
    bool equivalent = plain_cec == CecStatus::kEquivalent &&
                      choice_cec == CecStatus::kEquivalent &&
                      adopted_cec == CecStatus::kEquivalent;
    double final_area = adopted.netlist.area();
    double final_delay = adopted.netlist.delay();
    bool area_no_worse = final_area <= plain.area() + 1e-9;
    bool delay_no_worse = final_delay <= plain.delay() + 1e-9;
    bool strictly_better = final_area < plain.area() - 1e-9;
    any_strictly_better = any_strictly_better || strictly_better;
    any_rings = any_rings || stats.alts_kept > 0;
    bool ok = equivalent && area_no_worse && delay_no_worse;
    all_ok = all_ok && ok;

    double overhead = plain_map_s > 0.0 ? choice_map_s / plain_map_s : 0.0;
    std::printf(
        "%-12s area %8.3f -> %8.3f (raw %8.3f) | delay %7.1f -> %7.1f | "
        "rings %4zu (%3zu alts, %zu rejected) | %s | map %6.4f s -> %6.4f s "
        "(%4.1fx) | cec %s/%s%s\n",
        c.name.c_str(), plain.area(), final_area, choice.area(),
        plain.delay(), final_delay, stats.classes_with_choices,
        stats.alts_kept, stats.alts_rejected,
        adopted.adopted_choice ? "adopted " : "fallback", plain_map_s,
        choice_map_s, overhead, cec_status_name(plain_cec),
        cec_status_name(choice_cec), ok ? "" : "  [FAIL]");

    Json entry = Json::object();
    entry["name"] = c.name;
    entry["ands_plain"] = static_cast<std::uint64_t>(w.plain_aig.num_ands());
    entry["ands_choice_aig"] = static_cast<std::uint64_t>(caig.aig.num_ands());
    entry["area_plain"] = plain.area();
    entry["area_choice_raw"] = choice.area();
    entry["area_adopted"] = final_area;
    entry["delay_plain"] = plain.delay();
    entry["delay_choice_raw"] = choice.delay();
    entry["delay_adopted"] = final_delay;
    entry["choice_adopted"] = adopted.adopted_choice;
    entry["plain_map_seconds"] = plain_map_s;
    entry["choice_map_seconds"] = choice_map_s;
    entry["choice_export_seconds"] = export_s;
    entry["map_overhead"] = overhead;
    // Upper bound on exportable alternatives across the whole e-graph —
    // how much structural diversity saturation recorded vs. how much the
    // capped, cone-restricted export materialized.
    entry["class_variant_potential"] =
        static_cast<std::uint64_t>(choice_potential(w.ce.egraph));
    entry["classes_with_choices"] =
        static_cast<std::uint64_t>(stats.classes_with_choices);
    entry["alts_kept"] = static_cast<std::uint64_t>(stats.alts_kept);
    entry["alts_rejected"] = static_cast<std::uint64_t>(stats.alts_rejected);
    entry["alts_dropped_cyclic"] =
        static_cast<std::uint64_t>(stats.alts_dropped_cyclic);
    entry["verify_sat_calls"] =
        static_cast<std::uint64_t>(stats.verify_sat_calls);
    entry["cec_plain"] = std::string(cec_status_name(plain_cec));
    entry["cec_choice"] = std::string(cec_status_name(choice_cec));
    entry["cec_adopted"] = std::string(cec_status_name(adopted_cec));
    entry["area_no_worse"] = area_no_worse;
    entry["delay_no_worse"] = delay_no_worse;
    entry["area_strictly_better"] = strictly_better;
    circuits.push_back(std::move(entry));
  }

  all_ok = all_ok && any_strictly_better && any_rings;
  std::printf(
      "strictly better on >= 1 circuit: %s | non-empty rings somewhere: "
      "%s\n",
      any_strictly_better ? "yes" : "NO [FAIL]", any_rings ? "yes" : "NO [FAIL]");

  Json doc = Json::object();
  doc["benchmark"] = "choicemap-single-extraction-vs-choice-mapping";
  doc["circuits"] = std::move(circuits);
  doc["any_area_strictly_better"] = any_strictly_better;
  doc["any_rings_exported"] = any_rings;
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
  const char* json_path = argc > 1 ? argv[1] : "BENCH_choicemap.json";
  return run_comparison(json_path) ? 0 : 1;
}
