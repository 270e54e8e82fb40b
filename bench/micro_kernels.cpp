// Timings for the two ResynRounds kernels the end-to-end benchmark
// (perfbench/) cannot isolate: priority-cut enumeration, serial and
// wave-parallel, and NPN canonization of 4-input functions. Timing only;
// the bit-identical parallel == serial guarantee is a ctest case
// (tests/aig/test_cut_parallel.cpp).
//
//   $ ./bench/micro_kernels

#include "minibench.hpp"

#include <vector>

#include "aig/cut.hpp"
#include "aig/truth.hpp"
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

void BM_CutEnumParallel4(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 7);
  CutArena arena;
  ThreadPool pool(4);
  for (auto _ : state) {
    CutManager cuts(aig, CutParams{6, 8}, &arena, &pool);
    minibench::DoNotOptimize(cuts.cuts(aig.num_nodes() - 1).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CutEnumParallel4)->Arg(4000)->Arg(20000);

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

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  return 0;
}
