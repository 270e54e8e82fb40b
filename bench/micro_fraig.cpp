// SAT-sweeping perf harness: naive all-pairs SAT sweeping vs. the
// simulation-guided fraig engine (random-simulation candidate classes +
// counterexample replay), on identical inputs.
//
// Workloads are "doubled" benchgen circuits — two functionally equal,
// structurally different copies sharing the PIs — so every node of one copy
// has an equivalent partner structural hashing cannot see. For each circuit
// the harness records wall clock, SAT-query counts and the resulting
// AND-node counts in BENCH_fraig.json, and enforces through its exit code:
//   * both sweeps shrink the doubled circuit (fraig finds real merges),
//   * naive and guided sweeps reach the identical AND count (QoR equality —
//     pruning may only skip SAT calls, never merges),
//   * `cec` proves every swept output equivalent to its input.
// The speedup itself is recorded, not asserted (machine-dependent).

#include "minibench.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/doubling.hpp"
#include "cec/cec.hpp"
#include "opt/fraig.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace emorphic;

void BM_FraigGuidedDoubledAdder(minibench::State& state) {
  Aig aig = doubled(make_adder(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    Aig swept = fraig(aig);
    minibench::DoNotOptimize(swept.num_ands());
  }
  state.SetItemsProcessed(state.iterations() * aig.num_ands());
}
BENCHMARK(BM_FraigGuidedDoubledAdder)->Arg(8)->Arg(16);

void BM_FraigSimulationOnly(minibench::State& state) {
  // Mostly the candidate-partitioning front-end: with a conflict budget of
  // 1 nearly every non-trivial proof gives up immediately, so the time is
  // dominated by simulation + partition refinement.
  Aig aig = doubled(make_adder(16));
  FraigParams params;
  params.conflict_limit = 1;
  for (auto _ : state) {
    FraigStats stats;
    Aig swept = fraig(aig, params, &stats);
    minibench::DoNotOptimize(stats.classes);
  }
}
BENCHMARK(BM_FraigSimulationOnly);

// --- naive vs. simulation-guided comparison harness --------------------------

struct SweepOutcome {
  double seconds = 0.0;
  FraigStats stats;
  Aig result;
};

SweepOutcome run_sweep(const Aig& aig, bool guided) {
  FraigParams params;
  params.use_simulation = guided;
  // Complete sweeps: both modes must merge alike, so no proof budget and no
  // class-size cap (the naive mode has no cap, so a capped guided sweep
  // could legitimately merge less on a class-heavy workload).
  params.conflict_limit = 0;
  params.max_class_size = static_cast<std::size_t>(-1);
  SweepOutcome out;
  Timer timer;
  out.result = fraig(aig, params, &out.stats);
  out.seconds = timer.seconds();
  return out;
}

struct CircuitCase {
  std::string name;
  Aig aig;
};

bool run_comparison(const char* json_path) {
  // Small widths: the naive baseline is quadratic in SAT queries by design.
  std::vector<CircuitCase> cases;
  cases.push_back({"adder6_doubled", doubled(make_adder(6))});
  cases.push_back({"multiplier4_doubled", doubled(make_multiplier(4))});
  cases.push_back({"square4_doubled", doubled(make_square(4))});
  cases.push_back({"arbiter4_doubled", doubled(make_arbiter(4))});

  std::printf("\n-- SAT sweeping: naive all-pairs vs. simulation-guided "
              "(identical inputs, unbounded proofs) --\n");

  bool all_ok = true;
  Json circuits = Json::array();
  for (CircuitCase& c : cases) {
    SweepOutcome naive = run_sweep(c.aig, /*guided=*/false);
    SweepOutcome guided = run_sweep(c.aig, /*guided=*/true);

    bool shrank = guided.stats.ands_after < guided.stats.ands_before;
    bool qor_equal = guided.stats.ands_after == naive.stats.ands_after;
    CecStatus naive_cec = cec(c.aig, naive.result).status;
    CecStatus guided_cec = cec(c.aig, guided.result).status;
    bool equivalent = naive_cec == CecStatus::kEquivalent &&
                      guided_cec == CecStatus::kEquivalent;
    bool ok = shrank && qor_equal && equivalent;
    all_ok = all_ok && ok;

    double speedup = guided.seconds > 0.0 ? naive.seconds / guided.seconds : 0.0;
    std::printf(
        "%-20s %4u -> %4u ands | naive %8.3f s (%6zu queries) | guided "
        "%8.3f s (%5zu queries, %zu replays) | %5.1fx | cec %s/%s%s\n",
        c.name.c_str(), guided.stats.ands_before, guided.stats.ands_after,
        naive.seconds, naive.stats.sat_calls, guided.seconds,
        guided.stats.sat_calls, guided.stats.cex_replays, speedup,
        cec_status_name(naive_cec), cec_status_name(guided_cec),
        ok ? "" : "  [FAIL]");

    Json entry = Json::object();
    entry["name"] = c.name;
    entry["ands_before"] = static_cast<std::uint64_t>(guided.stats.ands_before);
    entry["ands_after_guided"] =
        static_cast<std::uint64_t>(guided.stats.ands_after);
    entry["ands_after_naive"] =
        static_cast<std::uint64_t>(naive.stats.ands_after);
    entry["naive_seconds"] = naive.seconds;
    entry["guided_seconds"] = guided.seconds;
    entry["speedup"] = speedup;
    entry["naive_sat_calls"] = static_cast<std::uint64_t>(naive.stats.sat_calls);
    entry["guided_sat_calls"] =
        static_cast<std::uint64_t>(guided.stats.sat_calls);
    entry["guided_candidate_classes"] =
        static_cast<std::uint64_t>(guided.stats.classes);
    entry["guided_proved"] = static_cast<std::uint64_t>(guided.stats.proved);
    entry["guided_refuted"] = static_cast<std::uint64_t>(guided.stats.refuted);
    entry["guided_cex_replays"] =
        static_cast<std::uint64_t>(guided.stats.cex_replays);
    entry["guided_sim_words"] =
        static_cast<std::uint64_t>(guided.stats.sim_words);
    entry["cec_naive"] = std::string(cec_status_name(naive_cec));
    entry["cec_guided"] = std::string(cec_status_name(guided_cec));
    entry["reduced_ands"] = shrank;
    entry["qor_equal"] = qor_equal;
    circuits.push_back(std::move(entry));
  }

  // A larger guided-only data point: the naive baseline would take minutes
  // here, which is exactly the point of simulation-guided pruning.
  {
    Aig big = doubled(make_adder(24));
    SweepOutcome guided = run_sweep(big, /*guided=*/true);
    CecStatus status = cec(big, guided.result).status;
    bool ok = status == CecStatus::kEquivalent &&
              guided.stats.ands_after < guided.stats.ands_before;
    all_ok = all_ok && ok;
    std::printf("%-20s %4u -> %4u ands | guided-only     %8.3f s (%5zu "
                "queries) | cec %s%s\n",
                "adder24_doubled", guided.stats.ands_before,
                guided.stats.ands_after, guided.seconds,
                guided.stats.sat_calls, cec_status_name(status),
                ok ? "" : "  [FAIL]");
    Json entry = Json::object();
    entry["name"] = "adder24_doubled";
    entry["ands_before"] = static_cast<std::uint64_t>(guided.stats.ands_before);
    entry["ands_after_guided"] =
        static_cast<std::uint64_t>(guided.stats.ands_after);
    entry["guided_seconds"] = guided.seconds;
    entry["guided_sat_calls"] =
        static_cast<std::uint64_t>(guided.stats.sat_calls);
    entry["cec_guided"] = std::string(cec_status_name(status));
    entry["reduced_ands"] =
        guided.stats.ands_after < guided.stats.ands_before;
    circuits.push_back(std::move(entry));
  }

  Json doc = Json::object();
  doc["benchmark"] = "fraig-naive-vs-simulation-guided";
  doc["circuits"] = std::move(circuits);
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
  const char* json_path = argc > 1 ? argv[1] : "BENCH_fraig.json";
  return run_comparison(json_path) ? 0 : 1;
}
