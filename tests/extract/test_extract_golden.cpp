// Pins the extraction kernels bit for bit: every choice, every counter and
// every cost they produce on the ten EPFL-style circuits after a short
// rewrite. The kernels are throughput targets; this constant is their
// behaviour, and any change to it changes SA trajectories and QoR.

#include <gtest/gtest.h>

#include <bit>

#include "aig/signature.hpp"
#include "benchgen/epfl.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "extract/exact.hpp"
#include "extract/extractor.hpp"
#include "flow/conversion.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

std::uint64_t fold_double(std::uint64_t h, double d) {
  return fold(h, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t fold_extraction(std::uint64_t h, const Extraction& sol) {
  h = fold(h, sol.size());
  for (std::uint32_t choice : sol.raw()) h = fold(h, choice);
  return fold(h, 0xfeed);
}

std::uint64_t fold_stats(std::uint64_t h, const ExtractStats& stats) {
  h = fold(h, stats.enodes_visited);
  h = fold(h, stats.enodes_skipped);
  return fold(h, stats.passes);
}

/// Folds every extraction entry point's output on one saturated e-graph.
std::uint64_t fold_circuit(std::uint64_t h, const CircuitEGraph& ce) {
  const EGraph& eg = ce.egraph;
  const CostModel size{CostKind::kSize};
  const CostModel depth{CostKind::kDepth};

  // Greedy, both cost kinds, pruned and unpruned.
  for (const CostModel* cost : {&size, &depth}) {
    for (bool prune : {true, false}) {
      ExtractStats stats;
      Extraction sol = greedy_extract(eg, *cost, &stats, prune);
      h = fold_extraction(h, sol);
      h = fold_stats(h, stats);
      h = fold_double(h, solution_cost(eg, sol, size, ce.roots));
      h = fold_double(h, solution_cost(eg, sol, depth, ce.roots));
    }
  }

  // Six warm-started, randomized Algorithm 1 passes (the SA move),
  // alternating the proxy cost, each seeded with the previous result.
  Rng rng(0x5eed);
  Extraction current = greedy_extract(eg, depth);
  for (int move = 0; move < 6; ++move) {
    ExtractStats stats;
    BottomUpOptions options;
    options.cost = move % 2 == 0 ? &depth : &size;
    options.p_random = 0.15;
    options.rng = &rng;
    options.warm_start = &current;
    options.stats = &stats;
    std::vector<double> costs;
    current = bottom_up_extract(eg, options, &costs);
    h = fold_extraction(h, current);
    h = fold_stats(h, stats);
    h = fold(h, costs.size());
    for (double c : costs) h = fold_double(h, c);
  }
  h = fold(h, rng.next());

  // DAG-aware refinement from the greedy size solution.
  Extraction greedy_size = greedy_extract(eg, size);
  for (unsigned passes : {1u, 2u}) {
    Extraction refined = dag_refine(eg, greedy_size, size, ce.roots, passes);
    h = fold_extraction(h, refined);
    h = fold(h, solution_is_well_founded(eg, refined, ce.roots) ? 1 : 0);
    h = fold_double(h, solution_cost(eg, refined, size, ce.roots));
  }

  // Random well-founded extraction, and the AIG rebuilt from it.
  Rng random_rng(0xface);
  Extraction random = random_extract(eg, random_rng);
  h = fold_extraction(h, random);
  h = fold(h, random_rng.next());
  Aig aig = extraction_to_aig(eg, random, ce.roots, ce.pi_names);
  h = fold(h, aig.num_nodes());
  h = fold(h, structural_signature(aig));
  return h;
}

TEST(Extract, GoldenDigestOverEpfl) {
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 8000;
  limits.time_limit_s = 1e9;  // a wall-clock stop would make the digest flaky
  std::uint64_t h = 0;
  for (const std::string& name : epfl_names()) {
    CircuitEGraph ce = aig_to_egraph(make_epfl(name));
    run_rewriting(ce.egraph, make_logic_rules(), limits);
    h = fold_circuit(h, ce);
  }
  EXPECT_EQ(h, 0xba55bc794fc8813full);
}

}  // namespace
}  // namespace emorphic
