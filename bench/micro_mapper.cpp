// Micro-benchmarks for the technology-mapping hot path plus the before/after
// harness for the SA evaluation overhaul: every Metropolis move of the
// extraction loop (paper Sec. III-B/III-C) serializes a candidate AIG and
// scores it with a quick technology mapping, so the mapper's per-evaluation
// setup cost — rebuilding the NPN matcher and reallocating the cut/DP
// arenas — used to dominate annealing wall clock.
//
// The comparison pits three evaluator configurations against each other on
// an identical annealing run:
//   * seed     — the pre-PR path: fresh CutManager + fresh Matcher (full
//                library NPN canonization) per evaluation;
//   * shared   — one thread-safe Matcher for all chains + per-thread
//                reusable MapperWorkspace (this PR's hot path);
//   * memoized — shared, plus the per-run QoR cache keyed by the candidate's
//                structural signature (SaParams::memoize_qor).
// All three must produce the *identical* annealing trajectory and final QoR
// (the evaluators are exact and deterministic); the harness enforces that
// through its exit code and writes the throughput numbers to
// BENCH_mapper.json so the perf trajectory is machine-readable across PRs.

#include "minibench.hpp"

#include <cstdio>
#include <fstream>

#include "benchgen/arith.hpp"
#include "core/emorphic.hpp"
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

/// The pre-PR evaluation path, preserved for the comparison: every call
/// rebuilds the matcher (library NPN canonization included) and allocates
/// fresh cut/DP state, exactly like the old map_to_cells did.
class SeedStyleEvaluator : public QorEvaluator {
 public:
  explicit SeedStyleEvaluator(const CellLibrary& library,
                              double area_weight = 0.5)
      : QorEvaluator(area_weight), library_(&library) {
    params_.num_cuts = 4;
    params_.area_recovery = false;
  }

  Qor evaluate(const Aig& candidate) const override {
    MappedQor q = map_qor(candidate, *library_, params_);
    return Qor{q.area, q.delay};
  }

 private:
  const CellLibrary* library_;
  MapperParams params_;
};

void BM_MatcherBuild(minibench::State& state) {
  const CellLibrary& lib = CellLibrary::asap7_like();
  for (auto _ : state) {
    Matcher matcher(lib);
    minibench::DoNotOptimize(matcher.cache_size());
  }
}
BENCHMARK(BM_MatcherBuild);

void BM_MatchWarmCache(minibench::State& state) {
  Matcher matcher(CellLibrary::asap7_like());
  Rng rng(17);
  std::vector<Tt> tts;
  for (int i = 0; i < 256; ++i) tts.push_back(rng.next() & tt_mask(4));
  for (Tt t : tts) matcher.match(t, 4);  // warm
  for (auto _ : state) {
    std::size_t total = 0;
    for (Tt t : tts) total += matcher.match(t, 4).size();
    minibench::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MatchWarmCache);

void BM_MapFreshMatcher(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 11);
  const CellLibrary& lib = CellLibrary::asap7_like();
  for (auto _ : state) {
    MappedQor qor = map_qor(aig, lib);
    minibench::DoNotOptimize(qor.delay);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapFreshMatcher)->Arg(500)->Arg(4000);

void BM_MapSharedMatcher(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 11);
  Matcher matcher(CellLibrary::asap7_like());
  MapperWorkspace workspace;
  for (auto _ : state) {
    MappedQor qor = map_qor(aig, matcher, {}, &workspace);
    minibench::DoNotOptimize(qor.delay);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapSharedMatcher)->Arg(500)->Arg(4000);

// --- SA evaluation-throughput before/after harness ---------------------------

struct EvalWorkload {
  // Candidate size vs. e-graph size matters here: mapping cost scales with
  // the candidate AIG, neighbor generation with the e-graph, and only the
  // former differs between configurations — so the workload uses a wide
  // adder with few, capped rewrite iterations.
  unsigned adder_bits = 48;
  std::size_t rewrite_iterations = 2;
  std::size_t max_enodes = 6000;
  std::size_t max_matches_per_rule = 1200;
  unsigned sa_threads = 3;        // one chain per init corner
  unsigned sa_iterations = 4;     // paper schedule length
  unsigned sa_moves = 10;
  std::uint64_t sa_seed = 5;
  int repeats = 3;                // best-of-N wall clock per configuration
};

struct EvalOutcome {
  double seconds = 0.0;          // best of repeats
  std::size_t requested = 0;     // candidate evaluations asked for
  std::size_t evaluator_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t trace_len = 0;
  Qor best_qor;
  double best_cost = 0.0;
};

EvalOutcome run_config(const CircuitEGraph& ce, const QorEvaluator& evaluator,
                       const EvalWorkload& wl, bool memoize) {
  SaParams params;
  params.num_threads = wl.sa_threads;
  params.iterations = wl.sa_iterations;
  params.moves_per_iteration = wl.sa_moves;
  params.seed = wl.sa_seed;
  params.memoize_qor = memoize;
  EvalOutcome out;
  for (int rep = 0; rep < wl.repeats; ++rep) {
    Timer timer;
    SaResult result =
        sa_extract(ce.egraph, ce.roots, ce.pi_names, evaluator, params);
    double seconds = timer.seconds();
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.evaluator_calls = result.evaluations;
    out.cache_hits = result.qor_cache_hits;
    out.cache_misses = result.qor_cache_misses;
    out.requested = memoize ? result.qor_cache_hits + result.qor_cache_misses
                            : result.evaluations;
    out.trace_len = result.trace.size();
    out.best_qor = result.best_qor;
    out.best_cost = result.best_cost;
  }
  return out;
}

bool same_qor(const EvalOutcome& a, const EvalOutcome& b) {
  return a.best_cost == b.best_cost && a.best_qor.area == b.best_qor.area &&
         a.best_qor.delay == b.best_qor.delay && a.trace_len == b.trace_len &&
         a.requested == b.requested;
}

/// Returns false when any configuration's annealing run deviates from the
/// seed path (different QoR, trace length, or evaluation count) — the
/// speedups themselves are recorded, not asserted.
bool run_evaluation_comparison(const char* json_path) {
  EvalWorkload wl;
  const CellLibrary& lib = CellLibrary::asap7_like();

  Aig aig = make_adder(wl.adder_bits);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = wl.rewrite_iterations;
  limits.max_enodes = wl.max_enodes;
  limits.max_matches_per_rule = wl.max_matches_per_rule;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  std::printf("\n-- SA evaluation throughput: seed mapper path vs. shared "
              "matcher + memoization --\n");
  std::printf("workload: adder(%u), e-graph %zu classes / %zu e-nodes, "
              "%u chains x %u iters x %u moves\n",
              wl.adder_bits, ce.egraph.num_classes(), ce.egraph.num_enodes(),
              wl.sa_threads, wl.sa_iterations, wl.sa_moves);

  SeedStyleEvaluator seed_eval(lib);
  MapQorEvaluator shared_eval(lib);

  EvalOutcome seed = run_config(ce, seed_eval, wl, /*memoize=*/false);
  EvalOutcome shared = run_config(ce, shared_eval, wl, /*memoize=*/false);
  EvalOutcome memoized = run_config(ce, shared_eval, wl, /*memoize=*/true);

  bool shared_ok = same_qor(seed, shared);
  bool memo_ok = same_qor(seed, memoized);

  // Memoization pays when chains revisit extractions, which happens near
  // convergence: a small, densely-explored e-graph with a long move budget.
  EvalWorkload converged;
  converged.adder_bits = 6;
  converged.rewrite_iterations = 2;
  converged.max_enodes = 1500;
  converged.max_matches_per_rule = 500;
  converged.sa_moves = 24;
  Aig small_aig = make_adder(converged.adder_bits);
  CircuitEGraph small_ce = aig_to_egraph(small_aig);
  RunnerParams small_limits;
  small_limits.max_iterations = converged.rewrite_iterations;
  small_limits.max_enodes = converged.max_enodes;
  small_limits.max_matches_per_rule = converged.max_matches_per_rule;
  run_rewriting(small_ce.egraph, make_logic_rules(), small_limits);
  EvalOutcome conv_shared =
      run_config(small_ce, shared_eval, converged, /*memoize=*/false);
  EvalOutcome conv_memo =
      run_config(small_ce, shared_eval, converged, /*memoize=*/true);
  bool converged_ok = same_qor(conv_shared, conv_memo);

  auto throughput = [](const EvalOutcome& o) {
    return o.seconds > 0.0 ? static_cast<double>(o.requested) / o.seconds : 0.0;
  };
  double seed_tp = throughput(seed);
  double shared_tp = throughput(shared);
  double memo_tp = throughput(memoized);

  std::printf("seed (fresh matcher per eval):  %8.4f s  %9.1f evals/s\n",
              seed.seconds, seed_tp);
  std::printf("shared matcher + workspace:     %8.4f s  %9.1f evals/s  "
              "(%.2fx)\n",
              shared.seconds, shared_tp, shared_tp / seed_tp);
  std::printf("shared + Qor memoization:       %8.4f s  %9.1f evals/s  "
              "(%.2fx; %zu hits / %zu misses)\n",
              memoized.seconds, memo_tp, memo_tp / seed_tp,
              memoized.cache_hits, memoized.cache_misses);
  std::printf("converged adder(%u) workload:   %8.4f s -> %8.4f s memoized  "
              "(%zu hits / %zu misses; QoR identical: %s)\n",
              converged.adder_bits, conv_shared.seconds, conv_memo.seconds,
              conv_memo.cache_hits, conv_memo.cache_misses,
              converged_ok ? "yes" : "NO");
  std::printf("QoR identical — shared: %s; memoized: %s\n",
              shared_ok ? "yes" : "NO", memo_ok ? "yes" : "NO");

  Json workload = Json::object();
  workload["adder_bits"] = static_cast<std::uint64_t>(wl.adder_bits);
  workload["rewrite_iterations"] =
      static_cast<std::uint64_t>(wl.rewrite_iterations);
  workload["max_enodes"] = static_cast<std::uint64_t>(wl.max_enodes);
  workload["sa_threads"] = static_cast<std::uint64_t>(wl.sa_threads);
  workload["sa_iterations"] = static_cast<std::uint64_t>(wl.sa_iterations);
  workload["sa_moves"] = static_cast<std::uint64_t>(wl.sa_moves);
  workload["sa_seed"] = wl.sa_seed;
  workload["repeats"] = static_cast<std::uint64_t>(wl.repeats);
  workload["egraph_classes"] = static_cast<std::uint64_t>(ce.egraph.num_classes());
  workload["egraph_enodes"] = static_cast<std::uint64_t>(ce.egraph.num_enodes());

  Json doc = Json::object();
  doc["benchmark"] = "mapper-sa-evaluation-throughput";
  doc["workload"] = std::move(workload);
  doc["seed_seconds"] = seed.seconds;
  doc["shared_seconds"] = shared.seconds;
  doc["memoized_seconds"] = memoized.seconds;
  doc["requested_evaluations"] = static_cast<std::uint64_t>(seed.requested);
  doc["seed_evals_per_s"] = seed_tp;
  doc["shared_evals_per_s"] = shared_tp;
  doc["memoized_evals_per_s"] = memo_tp;
  doc["speedup_shared"] = shared_tp / seed_tp;
  doc["speedup"] = memo_tp / seed_tp;
  doc["cache_hits"] = static_cast<std::uint64_t>(memoized.cache_hits);
  doc["cache_misses"] = static_cast<std::uint64_t>(memoized.cache_misses);
  doc["qor_equal_shared"] = shared_ok;
  doc["qor_equal_memoized"] = memo_ok;
  doc["best_area"] = seed.best_qor.area;
  doc["best_delay"] = seed.best_qor.delay;
  doc["converged_shared_seconds"] = conv_shared.seconds;
  doc["converged_memoized_seconds"] = conv_memo.seconds;
  doc["converged_cache_hits"] = static_cast<std::uint64_t>(conv_memo.cache_hits);
  doc["converged_cache_misses"] =
      static_cast<std::uint64_t>(conv_memo.cache_misses);
  doc["converged_qor_equal"] = converged_ok;

  std::ofstream file(json_path);
  file << doc.dump(2) << "\n";
  std::printf("wrote %s\n", json_path);

  return shared_ok && memo_ok && converged_ok;
}

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  const char* json_path = argc > 1 ? argv[1] : "BENCH_mapper.json";
  return run_evaluation_comparison(json_path) ? 0 : 1;
}
