// Micro-benchmarks for the e-graph kernels: add/hashcons, merge+rebuild,
// e-matching, greedy extraction (pruned vs. full), direct conversion, and the
// mapper — the per-operation costs behind Tables II/III.
//
// Also the before/after harness for the e-graph core overhaul: the
// saturation-rounds comparison pits the preserved seed implementation
// (bench/legacy_egraph.hpp) against the current core and writes the numbers
// to BENCH_egraph.json so the perf trajectory is machine-readable across PRs.
// Along the way it cross-checks that indexed, full-scan, and parallel
// matching all reach bit-identical saturation states.

#include "minibench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/emorphic.hpp"
#include "legacy_egraph.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace emorphic;

Aig make_random_aig(unsigned pis, unsigned ands, std::uint64_t seed) {
  Rng rng(seed);
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    pool.push_back(aig.make_and(a, b));
  }
  for (unsigned i = 0; i < 8; ++i) aig.add_po(pool[pool.size() - 1 - i]);
  return aig;
}

void BM_EGraphAdd(minibench::State& state) {
  for (auto _ : state) {
    EGraph eg;
    EClassId a = eg.add_var(0);
    EClassId b = eg.add_var(1);
    for (int i = 0; i < state.range(0); ++i) {
      a = eg.add_and(a, b);
    }
    minibench::DoNotOptimize(eg.num_enodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EGraphAdd)->Arg(1000)->Arg(10000);

void BM_MergeRebuild(minibench::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    EGraph eg;
    std::vector<EClassId> vars;
    for (int i = 0; i < state.range(0); ++i) {
      vars.push_back(eg.add_var(static_cast<std::uint32_t>(i)));
    }
    EClassId probe = eg.add_var(999999);
    std::vector<EClassId> nots;
    for (EClassId v : vars) nots.push_back(eg.add_and(v, probe));
    state.ResumeTiming();
    for (std::size_t i = 1; i < vars.size(); ++i) eg.merge(vars[0], vars[i]);
    eg.rebuild();
    minibench::DoNotOptimize(eg.num_classes());
  }
}
BENCHMARK(BM_MergeRebuild)->Arg(256)->Arg(2048);

void BM_DirectConversion(minibench::State& state) {
  Aig aig = make_random_aig(32, static_cast<unsigned>(state.range(0)), 5);
  for (auto _ : state) {
    CircuitEGraph ce = aig_to_egraph(aig);
    minibench::DoNotOptimize(ce.egraph.num_enodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DirectConversion)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_EMatching(minibench::State& state) {
  Aig aig = make_random_aig(16, 400, 7);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 20000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  auto rules = make_logic_rules();
  const Pattern& pattern = rules[4].lhs;  // distributivity
  for (auto _ : state) {
    std::vector<Subst> matches;
    for (EClassId id : ce.egraph.class_ids()) {
      match_in_class(ce.egraph, pattern, id, matches, 100000);
    }
    minibench::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_EMatching);

void BM_GreedyExtractPruned(minibench::State& state) {
  Aig aig = make_random_aig(16, 600, 9);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 30000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  CostModel cost{CostKind::kDepth};
  bool prune = state.range(0) != 0;
  for (auto _ : state) {
    Extraction sol = greedy_extract(ce.egraph, cost, nullptr, prune);
    minibench::DoNotOptimize(sol.size());
  }
}
BENCHMARK(BM_GreedyExtractPruned)->Arg(0)->Arg(1);

void BM_TechMap(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 11);
  const CellLibrary& lib = CellLibrary::asap7_like();
  for (auto _ : state) {
    MappedQor qor = map_qor(aig, lib);
    minibench::DoNotOptimize(qor.delay);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TechMap)->Arg(500)->Arg(4000);

void BM_NpnCanon(minibench::State& state) {
  Rng rng(13);
  std::vector<Tt> tts;
  for (int i = 0; i < 256; ++i) tts.push_back(rng.next() & tt_mask(4));
  for (auto _ : state) {
    Tt acc = 0;
    for (Tt t : tts) acc ^= npn_canon(t);
    minibench::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_NpnCanon);

// --- saturation-rounds before/after harness ---------------------------------

struct SaturationWorkload {
  unsigned pis = 16;
  unsigned ands = 240;
  std::uint64_t seed = 21;
  std::size_t iterations = 4;
  std::size_t max_enodes = 40000;
  std::size_t max_matches_per_rule = 4000;
  int repeats = 3;  // best-of-N wall clock per configuration
};

struct RunOutcome {
  double seconds = 0.0;  // best of repeats
  std::size_t matches = 0;
  std::size_t enodes = 0;
  std::size_t classes = 0;
  std::vector<std::size_t> rule_matches;
};

RunOutcome run_new(const Aig& aig, const std::vector<Rewrite>& rules,
                   const SaturationWorkload& wl, bool use_index,
                   unsigned threads) {
  RunnerParams params;
  params.max_iterations = wl.iterations;
  params.max_enodes = wl.max_enodes;
  params.max_matches_per_rule = wl.max_matches_per_rule;
  params.use_rule_index = use_index;
  params.match_threads = threads;
  RunOutcome out;
  for (int rep = 0; rep < wl.repeats; ++rep) {
    CircuitEGraph ce = aig_to_egraph(aig);
    Timer timer;
    RunnerReport report = run_rewriting(ce.egraph, rules, params);
    double seconds = timer.seconds();
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.matches = 0;
    for (const IterationStats& it : report.iterations) {
      out.matches += it.matches;
    }
    out.enodes = ce.egraph.num_enodes();
    out.classes = ce.egraph.num_classes();
    out.rule_matches = report.rule_matches;
  }
  return out;
}

RunOutcome run_legacy(const Aig& aig, const std::vector<Rewrite>& rules,
                      const SaturationWorkload& wl) {
  RunOutcome out;
  for (int rep = 0; rep < wl.repeats; ++rep) {
    legacy::EGraph eg = legacy::egraph_from_aig(aig);
    Timer timer;
    legacy::RunStats stats = legacy::run_rewriting(
        eg, rules, wl.iterations, wl.max_enodes, wl.max_matches_per_rule);
    double seconds = timer.seconds();
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.matches = stats.matches;
    out.enodes = stats.enodes;
    out.classes = stats.classes;
  }
  return out;
}

bool same_saturation_state(const RunOutcome& a, const RunOutcome& b) {
  return a.matches == b.matches && a.enodes == b.enodes &&
         a.classes == b.classes && a.rule_matches == b.rule_matches;
}

/// Uncapped cross-check against the seed implementation. With no match or
/// node cap in play, the final congruence closure is independent of match
/// order, so every configuration — including the seed core, whose
/// unordered_map iteration order scrambles its match order — must land on
/// the identical e-graph state. (The capped perf workload is *not*
/// comparable that way: truncating to a 4000-match prefix picks different
/// matches per implementation.)
bool cross_check_with_legacy() {
  bool ok = true;
  struct Shape {
    unsigned pis;
    unsigned ands;
    std::size_t iterations;
  };
  for (Shape shape : {Shape{8, 30, 3}, Shape{10, 40, 2}}) {
    SaturationWorkload wl;
    wl.pis = shape.pis;
    wl.ands = shape.ands;
    wl.seed = 7;
    wl.iterations = shape.iterations;
    wl.max_enodes = 100000000;
    wl.max_matches_per_rule = 100000000;
    wl.repeats = 1;
    Aig aig = make_random_aig(wl.pis, wl.ands, wl.seed);
    std::vector<Rewrite> rules = make_logic_rules();
    RunOutcome legacy_run = run_legacy(aig, rules, wl);
    RunOutcome fullscan = run_new(aig, rules, wl, /*use_index=*/false, 1);
    RunOutcome indexed = run_new(aig, rules, wl, /*use_index=*/true, 1);
    RunOutcome parallel = run_new(aig, rules, wl, /*use_index=*/true, 4);
    bool same = legacy_run.matches == indexed.matches &&
                legacy_run.enodes == indexed.enodes &&
                legacy_run.classes == indexed.classes &&
                same_saturation_state(fullscan, indexed) &&
                same_saturation_state(indexed, parallel);
    std::printf("cross-check %ux%u/%zu iters (uncapped): %zu classes, "
                "%zu e-nodes — legacy/fullscan/indexed/parallel agree: %s\n",
                wl.pis, wl.ands, wl.iterations, indexed.classes,
                indexed.enodes, same ? "yes" : "NO");
    ok = ok && same;
  }
  return ok;
}

/// Returns false when a cross-check fails (configurations disagree on the
/// saturation state); the speedup itself is recorded, not asserted.
bool run_saturation_comparison(const char* json_path) {
  SaturationWorkload wl;
  Aig aig = make_random_aig(wl.pis, wl.ands, wl.seed);
  std::vector<Rewrite> rules = make_logic_rules();
  unsigned threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  std::printf("\n-- saturation-rounds: seed core vs. overhauled core --\n");
  RunOutcome legacy_run = run_legacy(aig, rules, wl);
  RunOutcome fullscan = run_new(aig, rules, wl, /*use_index=*/false, 1);
  RunOutcome indexed = run_new(aig, rules, wl, /*use_index=*/true, 1);
  RunOutcome parallel = run_new(aig, rules, wl, /*use_index=*/true, threads);

  bool index_ok = same_saturation_state(fullscan, indexed);
  bool parallel_ok = same_saturation_state(indexed, parallel);
  bool legacy_ok = cross_check_with_legacy();

  double serial_speedup = legacy_run.seconds / indexed.seconds;
  double parallel_speedup = legacy_run.seconds / parallel.seconds;

  std::printf("legacy (seed hashcons/runner):   %8.3f s\n",
              legacy_run.seconds);
  std::printf("new, full-scan serial:           %8.3f s\n", fullscan.seconds);
  std::printf("new, indexed serial:             %8.3f s  (%.2fx)\n",
              indexed.seconds, serial_speedup);
  std::printf("new, indexed, %u match threads:   %8.3f s  (%.2fx)\n", threads,
              parallel.seconds, parallel_speedup);
  std::printf("indexed == full-scan: %s; threads == serial: %s\n",
              index_ok ? "yes" : "NO", parallel_ok ? "yes" : "NO");
  std::printf("final e-graph: %zu classes, %zu e-nodes, %zu matches\n",
              indexed.classes, indexed.enodes, indexed.matches);

  Json workload = Json::object();
  workload["pis"] = static_cast<std::uint64_t>(wl.pis);
  workload["ands"] = static_cast<std::uint64_t>(wl.ands);
  workload["seed"] = static_cast<std::uint64_t>(wl.seed);
  workload["iterations"] = static_cast<std::uint64_t>(wl.iterations);
  workload["max_enodes"] = static_cast<std::uint64_t>(wl.max_enodes);
  workload["max_matches_per_rule"] =
      static_cast<std::uint64_t>(wl.max_matches_per_rule);
  workload["rules"] = static_cast<std::uint64_t>(rules.size());
  workload["repeats"] = static_cast<std::uint64_t>(wl.repeats);

  Json doc = Json::object();
  doc["benchmark"] = "egraph-saturation-rounds";
  doc["workload"] = std::move(workload);
  doc["legacy_seconds"] = legacy_run.seconds;
  doc["new_fullscan_seconds"] = fullscan.seconds;
  doc["new_indexed_seconds"] = indexed.seconds;
  doc["new_parallel_seconds"] = parallel.seconds;
  doc["match_threads"] = static_cast<std::uint64_t>(threads);
  doc["serial_speedup"] = serial_speedup;
  doc["speedup"] = parallel_speedup;
  doc["indexed_equals_fullscan"] = index_ok;
  doc["parallel_equals_serial"] = parallel_ok;
  doc["uncapped_state_equals_legacy"] = legacy_ok;
  doc["final_classes"] = static_cast<std::uint64_t>(indexed.classes);
  doc["final_enodes"] = static_cast<std::uint64_t>(indexed.enodes);
  doc["total_matches"] = static_cast<std::uint64_t>(indexed.matches);

  std::ofstream file(json_path);
  file << doc.dump(2) << "\n";
  std::printf("wrote %s\n", json_path);

  return index_ok && parallel_ok && legacy_ok;
}

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  const char* json_path =
      argc > 1 ? argv[1] : "BENCH_egraph.json";
  return run_saturation_comparison(json_path) ? 0 : 1;
}
