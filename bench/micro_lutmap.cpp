// Micro-benchmarks for the parallel cut-enumeration + k-LUT mapping PR:
//
//   * serial vs. wave-parallel cut enumeration throughput (the tentpole's
//     perf claim), with the bit-identical guarantee *enforced* — the
//     harness exits non-zero if any thread count changes any cut list;
//   * LUT mapping vs. standard-cell mapping QoR on the same circuits,
//     every LUT cover CEC-proven against its input (also exit-code
//     enforced).
//
// Speedups are recorded in BENCH_lutmap.json, not asserted: CI runners
// (and this repo's dev container) may expose a single core, where the
// wave overhead makes parallel enumeration a wash. Correctness — parallel
// == serial, cover == input — is what the exit code gates.

#include "minibench.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "aig/cut.hpp"
#include "benchgen/arith.hpp"
#include "cec/cec.hpp"
#include "mapper/lut_mapper.hpp"
#include "mapper/tech_mapper.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
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

bool cuts_identical(const CutManager& a, const CutManager& b, std::size_t n) {
  for (Var v = 0; v < n; ++v) {
    const auto& ca = a.cuts(v);
    const auto& cb = b.cuts(v);
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (ca[i].size != cb[i].size || ca[i].tt != cb[i].tt ||
          ca[i].leaves != cb[i].leaves) {
        return false;
      }
    }
  }
  return true;
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

void BM_LutMap(minibench::State& state) {
  Aig aig = make_random_aig(24, static_cast<unsigned>(state.range(0)), 7);
  LutWorkspace workspace;
  for (auto _ : state) {
    MappedNetlist network = map_to_luts(aig, {}, &workspace);
    minibench::DoNotOptimize(network.num_gates());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LutMap)->Arg(4000)->Arg(20000);

// --- serial-vs-parallel + LUT-vs-cell comparison harness ---------------------

struct EnumOutcome {
  double seconds = 0.0;  // best of repeats
  bool identical = true;
};

EnumOutcome run_enumeration(const Aig& aig, const CutManager& reference,
                            unsigned threads, int repeats) {
  EnumOutcome out;
  CutArena arena;
  ThreadPool pool(threads);
  for (int rep = 0; rep < repeats; ++rep) {
    Timer timer;
    CutManager cuts(aig, CutParams{6, 8}, &arena,
                    threads > 1 ? &pool : nullptr);
    double seconds = timer.seconds();
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.identical =
        out.identical && cuts_identical(reference, cuts, aig.num_nodes());
  }
  return out;
}

bool run_comparison(const char* json_path) {
  const int repeats = 3;
  const unsigned thread_counts[] = {2, 4};

  std::printf("\n-- wave-parallel cut enumeration vs. serial "
              "(bit-identical enforced) --\n");

  Json enum_results = Json::array();
  bool all_identical = true;
  struct Workload {
    std::string name;
    Aig aig;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"adder64", make_adder(64)});
  workloads.push_back({"random20k", make_random_aig(24, 20000, 7)});

  for (const Workload& wl : workloads) {
    CutManager reference(wl.aig, CutParams{6, 8});
    EnumOutcome serial = run_enumeration(wl.aig, reference, 1, repeats);
    Json entry = Json::object();
    entry["circuit"] = wl.name;
    entry["nodes"] = static_cast<std::uint64_t>(wl.aig.num_nodes());
    entry["serial_seconds"] = serial.seconds;
    std::printf("%-10s %7zu nodes: serial %8.4f s\n", wl.name.c_str(),
                static_cast<std::size_t>(wl.aig.num_nodes()), serial.seconds);
    for (unsigned threads : thread_counts) {
      EnumOutcome par = run_enumeration(wl.aig, reference, threads, repeats);
      double speedup = par.seconds > 0.0 ? serial.seconds / par.seconds : 0.0;
      entry["parallel_" + std::to_string(threads) + "_seconds"] = par.seconds;
      entry["speedup_" + std::to_string(threads)] = speedup;
      all_identical = all_identical && par.identical;
      std::printf("             %u threads: %8.4f s  (%.2fx; identical: %s)\n",
                  threads, par.seconds, speedup,
                  par.identical ? "yes" : "NO");
    }
    enum_results.push_back(std::move(entry));
  }

  std::printf("\n-- k-LUT vs. standard-cell mapping QoR (covers CEC-proven) "
              "--\n");
  Json qor_results = Json::array();
  bool all_equivalent = true;
  const CellLibrary& lib = CellLibrary::asap7_like();
  std::vector<Workload> qor_workloads;
  qor_workloads.push_back({"adder16", make_adder(16)});
  qor_workloads.push_back({"multiplier6", make_multiplier(6)});
  qor_workloads.push_back({"random2k", make_random_aig(16, 2000, 21)});
  for (const Workload& wl : qor_workloads) {
    MappedNetlist luts = map_to_luts(wl.aig);
    const auto depth = static_cast<std::uint64_t>(luts.delay());
    bool ok = cec(wl.aig, luts.to_aig()).status == CecStatus::kEquivalent;
    all_equivalent = all_equivalent && ok;
    MappedQor cells = map_qor(wl.aig, lib);
    Json entry = Json::object();
    entry["circuit"] = wl.name;
    entry["lut_count"] = static_cast<std::uint64_t>(luts.num_gates());
    entry["lut_depth"] = depth;
    entry["cell_area"] = cells.area;
    entry["cell_delay"] = cells.delay;
    entry["cec_equivalent"] = ok;
    std::printf("%-12s luts=%5zu depth=%3llu | cells area=%9.1f delay=%7.1f | "
                "cec: %s\n",
                wl.name.c_str(), luts.num_gates(),
                static_cast<unsigned long long>(depth), cells.area,
                cells.delay, ok ? "yes" : "NO");
    qor_results.push_back(std::move(entry));
  }

  Json doc = Json::object();
  doc["benchmark"] = "lutmap-parallel-enumeration-and-qor";
  doc["repeats"] = static_cast<std::uint64_t>(repeats);
  doc["enumeration"] = std::move(enum_results);
  doc["qor"] = std::move(qor_results);
  doc["parallel_identical"] = all_identical;
  doc["covers_equivalent"] = all_equivalent;

  std::ofstream file(json_path);
  file << doc.dump(2) << "\n";
  std::printf("wrote %s\n", json_path);

  return all_identical && all_equivalent;
}

}  // namespace

int main(int argc, char** argv) {
  minibench::Initialize(&argc, argv);
  minibench::RunSpecifiedBenchmarks();
  const char* json_path = argc > 1 ? argv[1] : "BENCH_lutmap.json";
  return run_comparison(json_path) ? 0 : 1;
}
