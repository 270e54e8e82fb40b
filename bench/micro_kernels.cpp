// Timings for the kernels the end-to-end benchmark (perfbench/) cannot
// isolate: building and copying AIGs (structural hashing), the ResynRounds
// kernels (priority-cut enumeration, NPN canonization of 4-input functions,
// and the two resynthesis passes, refactoring and SOP balancing), the
// e-matching search (per rule class, and all rules serial against a
// 4-thread pool), the SA neighbour generation of the extraction kernel, the
// covering DP under both mapping backends, and the CDCL kernel on two CEC
// miters. Timing only; the bit-identical guarantees are ctest cases
// (Cut.GoldenDigestOverEpfl and Truth.NpnCanonMatchesBruteForce in
// tests/aig, Resyn.GoldenDigestOverEpfl in tests/opt,
// MatchMemo.ThreadedSearchEqualsSerial and Runner.GoldenMatchDigestOverEpfl
// in tests/egraph, Extract.GoldenDigestOverEpfl in tests/extract,
// Mapper.GoldenCoverDigestOverEpfl in tests/mapper,
// Sat.GoldenSolverCounters in tests/sat).
//
//   $ ./bench/micro_kernels

#include "minibench.hpp"

#include <string>
#include <vector>

#include "aig/cut.hpp"
#include "aig/truth.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/doubling.hpp"
#include "benchgen/epfl.hpp"
#include "benchgen/scale.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "extract/extractor.hpp"
#include "flow/conversion.hpp"
#include "mapper/lut_mapper.hpp"
#include "mapper/tech_mapper.hpp"
#include "opt/refactor.hpp"
#include "opt/resyn.hpp"
#include "opt/sop_balance.hpp"
#include "sat/cnf.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

void BM_CutEnumSerial(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 7);
  CutArena arena;
  for (auto _ : state) {
    CutManager cuts(aig, CutParams{6, 8}, &arena);
    minibench::DoNotOptimize(cuts.cuts(aig.num_nodes() - 1).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CutEnumSerial)->Arg(4000)->Arg(20000);

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

/// The ten EPFL circuits as generated, the input ResynRounds sees.
const std::vector<Aig>& generated_epfl() {
  static const std::vector<Aig> circuits = [] {
    std::vector<Aig> out;
    for (const std::string& name : epfl_names()) out.push_back(make_epfl(name));
    return out;
  }();
  return circuits;
}

/// One pass of `pass` over each of the ten EPFL circuits. Items are AND
/// nodes of the inputs.
template <typename Pass>
void resynthesize_epfl(minibench::State& state, Pass pass) {
  std::int64_t ands = 0;
  for (const Aig& aig : generated_epfl()) {
    ands += static_cast<std::int64_t>(aig.num_ands());
  }
  for (auto _ : state) {
    std::size_t out_ands = 0;
    for (const Aig& aig : generated_epfl()) out_ands += pass(aig).num_ands();
    minibench::DoNotOptimize(out_ands);
  }
  state.SetItemsProcessed(state.iterations() * ands);
}

/// Building AIGs through structural hashing. Arg 0 tiles doubled 6-bit
/// adders to 4*10^4 ANDs (the set-up perfbench's scale_partition times),
/// arg 1 generates the ten EPFL circuits. Items are AND nodes built.
void BM_AigBuild(minibench::State& state) {
  std::int64_t ands = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      ands += tile_to_ands(doubled(make_adder(6)), 40000).num_ands();
    } else {
      for (const std::string& name : epfl_names()) {
        ands += make_epfl(name).num_ands();
      }
    }
  }
  minibench::DoNotOptimize(ands);
  state.SetItemsProcessed(ands);
}
BENCHMARK(BM_AigBuild)->Arg(0)->Arg(1);

/// Copying each of the ten EPFL circuits. Items are AND nodes copied.
void BM_AigCopy(minibench::State& state) {
  std::int64_t ands = 0;
  for (auto _ : state) {
    for (const Aig& aig : generated_epfl()) {
      Aig copy = aig;
      ands += copy.num_ands();
      minibench::DoNotOptimize(copy.num_nodes());
    }
  }
  state.SetItemsProcessed(ands);
}
BENCHMARK(BM_AigCopy);

/// `refactor` under its default parameters (6-input cuts, 6 per node).
void BM_Refactor(minibench::State& state) {
  resynthesize_epfl(state, [](const Aig& aig) { return refactor(aig); });
}
BENCHMARK(BM_Refactor);

/// `sop_balance` under its default parameters (6-input cuts, 8 per node).
void BM_SopBalance(minibench::State& state) {
  resynthesize_epfl(state, [](const Aig& aig) { return sop_balance(aig); });
}
BENCHMARK(BM_SopBalance);

/// The ten EPFL e-graphs after four rewrite iterations under perfbench's
/// rewrite caps (5 iterations, 60000 e-nodes or 40000 above 3000 ANDs,
/// 4000 matches per rule): the frozen state the fifth search sees.
const std::vector<CircuitEGraph>& rewritten_epfl() {
  static const std::vector<CircuitEGraph> egraphs = [] {
    std::vector<CircuitEGraph> out;
    for (const std::string& name : epfl_names()) {
      const Aig aig = make_epfl(name);
      RunnerParams limits;
      limits.max_iterations = 4;
      limits.max_enodes = aig.num_ands() > 3000 ? 40000 : 60000;
      limits.max_matches_per_rule = 4000;
      limits.time_limit_s = 1e9;
      out.push_back(aig_to_egraph(aig));
      run_rewriting(out.back().egraph, make_logic_rules(), limits);
    }
    return out;
  }();
  return egraphs;
}

/// One search phase of `rules` over the ten rewritten EPFL e-graphs (each
/// includes the per-search operator index build), on the calling thread
/// (`pool` null) or one rule per task on `pool`. Items are e-nodes
/// searched.
void search_rewritten_epfl(minibench::State& state,
                           const std::vector<Rewrite>& rules,
                           ThreadPool* pool) {
  RunnerParams params;
  params.max_matches_per_rule = 4000;
  std::int64_t enodes = 0;
  for (const CircuitEGraph& ce : rewritten_epfl()) {
    enodes += static_cast<std::int64_t>(ce.egraph.num_enodes());
  }
  for (auto _ : state) {
    std::size_t matches = 0;
    for (const CircuitEGraph& ce : rewritten_epfl()) {
      for (const RuleMatches& list :
           search_rules(ce.egraph, rules, params, pool)) {
        matches += list.size();
      }
    }
    minibench::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * enodes);
}

/// One serial search per rule class, one line per class.
const bool kMatchRulesRegistered = [] {
  for (RuleClass& rule_class : make_rule_classes()) {
    minibench::make_registrar(
        (std::string("BM_MatchRules/") + rule_class.class_name).c_str(),
        [rules = std::move(rule_class.rules)](minibench::State& state) {
          search_rewritten_epfl(state, rules, nullptr);
        });
  }
  return true;
}();

/// Every logic rule, serially and on a 4-thread pool: the
/// `RunnerParams::match_threads` path.
void BM_SearchRulesSerial(minibench::State& state) {
  search_rewritten_epfl(state, make_logic_rules(), nullptr);
}
BENCHMARK(BM_SearchRulesSerial);

void BM_SearchRulesThreaded4(minibench::State& state) {
  ThreadPool pool(4);
  search_rewritten_epfl(state, make_logic_rules(), &pool);
}
BENCHMARK(BM_SearchRulesThreaded4);

/// One SA move of each chain kind over a warm view and scratch: a
/// depth-proxy Algorithm 1 pass with p_random 0.15, and a size-proxy pass
/// plus one dag_refine pass (chain 1's move). Items are e-nodes per move.
void BM_BottomUpExtract(minibench::State& state) {
  CircuitEGraph ce =
      aig_to_egraph(make_multiplier(static_cast<unsigned>(state.range(0))));
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 60000;
  limits.time_limit_s = 1e9;
  run_rewriting(ce.egraph, make_logic_rules(), limits);

  const ExtractView view(ce.egraph);
  ExtractScratch scratch;
  const CostModel depth{CostKind::kDepth};
  const CostModel size{CostKind::kSize};
  Extraction current = greedy_extract(view, depth, scratch);
  Rng rng(11);
  BottomUpOptions options;
  options.p_random = 0.15;
  options.rng = &rng;
  options.warm_start = &current;
  for (auto _ : state) {
    options.cost = &depth;
    Extraction delay_move = bottom_up_extract(view, options, scratch);
    options.cost = &size;
    Extraction size_move =
        dag_refine(view, bottom_up_extract(view, options, scratch), size,
                   ce.roots, scratch, 1);
    minibench::DoNotOptimize(delay_move.size() + size_move.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.num_nodes()));
}
BENCHMARK(BM_BottomUpExtract)->Arg(6)->Arg(8);

/// One cell map under the SA evaluator's settings (4 priority cuts, no area
/// recovery) through a shared matcher and a warm workspace — the cost of
/// one SA QoR evaluation. Items are AIG nodes per map.
void BM_MapCells(minibench::State& state) {
  const Aig aig = make_multiplier(static_cast<unsigned>(state.range(0)));
  const Matcher matcher(CellLibrary::asap7_like());
  MapperParams params;
  params.num_cuts = 4;
  params.area_recovery = false;
  MapperWorkspace workspace;
  for (auto _ : state) {
    minibench::DoNotOptimize(map_qor(aig, matcher, params, &workspace).delay);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(aig.num_nodes()));
}
BENCHMARK(BM_MapCells)->Arg(8)->Arg(16);

/// One 6-LUT map (default parameters, area recovery on) through a warm
/// workspace. Items are AIG nodes per map.
void BM_MapLuts(minibench::State& state) {
  const Aig aig = make_multiplier(static_cast<unsigned>(state.range(0)));
  MapperWorkspace workspace;
  for (auto _ : state) {
    minibench::DoNotOptimize(
        map_to_luts(aig, LutMapperParams{}, &workspace).area());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(aig.num_nodes()));
}
BENCHMARK(BM_MapLuts)->Arg(8)->Arg(16);

/// The miters of Sat.GoldenSolverCounters (tests/sat): an EPFL circuit
/// against its dch resynthesis, with the miter output asserted. Arg 0 is
/// the arbiter miter, proved; arg 1 the sqrt miter under the gate's
/// 12,000-conflict budget, which reduces the learnt database once. Each
/// iteration encodes into a fresh solver and solves; items are conflicts.
void BM_SolveMiter(minibench::State& state) {
  struct Miter {
    const char* name;
    std::uint64_t conflict_limit;
  };
  const Miter miter = state.range(0) == 0 ? Miter{"arbiter", 0}
                                          : Miter{"sqrt", 12000};
  const Aig a = make_epfl(miter.name);
  const Aig b = dch_substitute(a);
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    sat::Solver solver;
    solver.add_unit(sat::encode_miter(solver, a, b));
    minibench::DoNotOptimize(solver.solve({}, miter.conflict_limit));
    conflicts += solver.stats().conflicts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(conflicts));
}
BENCHMARK(BM_SolveMiter)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  return 0;
}
