#include "egraph/runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../test_helpers.hpp"
#include "benchgen/epfl.hpp"
#include "egraph/rules.hpp"
#include "extract/extractor.hpp"
#include "flow/conversion.hpp"

namespace emorphic {
namespace {

TEST(Runner, SaturatesTinyIdentity) {
  // x & 1 -> x saturates in a couple of iterations.
  EGraph eg;
  EClassId x = eg.add_var(0);
  EClassId one = eg.add_const1();
  EClassId f = eg.add_and(x, one);
  RunnerParams limits;
  limits.max_iterations = 10;
  RunnerReport report = run_rewriting(eg, make_reduction_rules(), limits);
  EXPECT_EQ(report.stop_reason, StopReason::kSaturated);
  EXPECT_EQ(eg.find(f), eg.find(x));
}

TEST(Runner, DemorganDiscoversOrForm) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId nab = eg.add_not(eg.add_and(a, b));
  RunnerParams limits;
  limits.max_iterations = 3;
  run_rewriting(eg, make_logic_rules(), limits);
  // !(a&b) must now be equivalent to !a | !b.
  EClassId or_form = eg.add_or(eg.add_not(a), eg.add_not(b));
  EXPECT_EQ(eg.find(nab), eg.find(or_form));
}

TEST(Runner, AbsorptionCollapses) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_and(a, eg.add_or(a, b));  // == a
  RunnerParams limits;
  limits.max_iterations = 4;
  run_rewriting(eg, make_logic_rules(), limits);
  EXPECT_EQ(eg.find(f), eg.find(a));
}

TEST(Runner, NodeLimitStops) {
  Rng rng(31);
  Aig aig = testing::random_aig(6, 3, 60, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 50;
  limits.max_enodes = 500;
  RunnerReport report = run_rewriting(ce.egraph, make_logic_rules(), limits);
  EXPECT_EQ(report.stop_reason, StopReason::kNodeLimit);
}

RunnerParams hyp_capped_params() {
  RunnerParams limits;
  limits.max_iterations = 5;
  limits.max_enodes = 20000;
  limits.max_matches_per_rule = 500;
  limits.time_limit_s = 1e9;
  return limits;
}

TEST(Runner, NodeLimitInTheApplyPhaseStopsTheRun) {
  // The budget also caps the ids the apply phase creates. On hyp the fourth
  // iteration passes it with its live e-nodes still under the budget: the
  // run records that iteration and stops at the node limit.
  CircuitEGraph ce = aig_to_egraph(make_epfl("hyp"));
  const RunnerParams limits = hyp_capped_params();
  RunnerReport report = run_rewriting(ce.egraph, make_logic_rules(), limits);
  ASSERT_EQ(report.iterations.size(), 4u);
  EXPECT_EQ(report.iterations.back().matches, 7489u);
  EXPECT_EQ(report.iterations.back().applied, 990u);
  EXPECT_EQ(ce.egraph.num_enodes(), 19144u);
  EXPECT_GT(ce.egraph.num_classes_created(), limits.max_enodes);
  EXPECT_EQ(report.stop_reason, StopReason::kNodeLimit);
}

TEST(Runner, NoSearchFollowsACappedApplyPhase) {
  // Every search runs on an e-graph whose created ids are within the
  // budget: once an apply phase passes it, the next search could find
  // matches but apply none of them.
  CircuitEGraph ce = aig_to_egraph(make_epfl("hyp"));
  const RunnerParams limits = hyp_capped_params();
  std::size_t searches = 0;
  RunnerHooks hooks;
  hooks.on_search = [&](const std::vector<RuleMatches>&) {
    ++searches;
    EXPECT_LE(ce.egraph.num_classes_created(), limits.max_enodes)
        << "search " << searches;
  };
  RunnerReport report =
      run_rewriting(ce.egraph, make_logic_rules(), limits, hooks);
  EXPECT_EQ(searches, report.iterations.size());
  EXPECT_GT(ce.egraph.num_classes_created(), limits.max_enodes);
}

TEST(Runner, IterationLimitRespected) {
  Rng rng(32);
  Aig aig = testing::random_aig(6, 3, 40, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = 2;
  limits.max_enodes = 1u << 20;
  RunnerReport report = run_rewriting(ce.egraph, make_logic_rules(), limits);
  EXPECT_LE(report.iterations.size(), 2u);
}

TEST(Runner, RewritingPreservesFunction) {
  // The key soundness property end-to-end: rewrite, extract greedily, and
  // compare against the original circuit by simulation.
  Rng rng(33);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(5, 3, 35, rng);
    CircuitEGraph ce = aig_to_egraph(aig);
    RunnerParams limits;
    limits.max_iterations = 4;
    limits.max_enodes = 20000;
    run_rewriting(ce.egraph, make_logic_rules(), limits);
    Aig out = egraph_to_aig_greedy(ce);
    EXPECT_TRUE(testing::functionally_equal(aig, out)) << "round " << round;
  }
}

TEST(Runner, GrowsEquivalenceClasses) {
  // Insight 1 of the paper: a few iterations multiply the stored choices.
  Rng rng(34);
  Aig aig = testing::random_aig(6, 3, 50, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  std::size_t before = ce.egraph.num_enodes();
  RunnerParams limits;
  limits.max_iterations = 3;
  limits.max_enodes = 50000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  EXPECT_GT(ce.egraph.num_enodes(), before * 2);
}

TEST(Runner, ReportsPerRuleCounts) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  eg.add_and(a, eg.add_const1());
  auto rules = make_reduction_rules();
  RunnerParams limits;
  limits.max_iterations = 2;
  RunnerReport report = run_rewriting(eg, rules, limits);
  ASSERT_EQ(report.rule_matches.size(), rules.size());
  std::size_t total = 0;
  for (auto c : report.rule_matches) total += c;
  EXPECT_GT(total, 0u);
}

TEST(Runner, UncappedCountsMatchTheSeedCore) {
  // Uncapped, the final congruence closure is independent of match order,
  // so full-scan, indexed and 4-thread matching must each reach the exact
  // counts the original (seed) e-graph core produced on these circuits.
  struct Pinned {
    unsigned pis, ands;
    std::size_t iterations, matches, enodes, classes;
  };
  for (Pinned pin : {Pinned{8, 30, 3, 8195, 2148, 842},
                     Pinned{10, 40, 2, 1272, 925, 491}}) {
    Aig aig = testing::random_aig_tail_pos(pin.pis, pin.ands, 7);
    for (auto [use_index, threads] :
         {std::pair{false, 1u}, std::pair{true, 1u}, std::pair{true, 4u}}) {
      CircuitEGraph ce = aig_to_egraph(aig);
      RunnerParams params;
      params.max_iterations = pin.iterations;
      params.max_enodes = 100000000;
      params.max_matches_per_rule = 100000000;
      params.time_limit_s = 1e9;
      params.use_rule_index = use_index;
      params.match_threads = threads;
      RunnerReport report =
          run_rewriting(ce.egraph, make_logic_rules(), params);
      std::size_t matches = 0;
      for (const IterationStats& it : report.iterations) matches += it.matches;
      std::string where = std::to_string(pin.pis) + "x" +
                          std::to_string(pin.ands) + " index=" +
                          std::to_string(use_index) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(matches, pin.matches) << where;
      EXPECT_EQ(ce.egraph.num_enodes(), pin.enodes) << where;
      EXPECT_EQ(ce.egraph.num_classes(), pin.classes) << where;
    }
  }
}

/// Every live class with its member e-nodes in storage order: equal dumps
/// mean equal e-graphs.
std::string egraph_dump(const EGraph& eg) {
  std::string out;
  for (EClassId id : eg.class_ids()) {
    out += std::to_string(id) + ":";
    for (const ENode& n : eg.eclass(id).nodes) {
      out += " " + std::to_string(static_cast<int>(n.op)) + "/" +
             std::to_string(n.symbol) + "/" + std::to_string(n.children[0]) +
             "/" + std::to_string(n.children[1]);
    }
    out += "\n";
  }
  return out;
}

TEST(Runner, StopHookHaltsBetweenSearchAndApply) {
  // The stop hook is polled after each search and after each iteration, so
  // its calls 1, 2 and 3 come after iteration 1's search, after iteration 1
  // and after iteration 2's search. A stop after a search applies none of
  // its matches: stopping at call 1 leaves the e-graph untouched, and
  // stopping at call 2 or 3 leaves the e-graph of a one-iteration run.
  auto fresh = [] {
    Rng rng(33);
    return std::move(aig_to_egraph(testing::random_aig(6, 3, 40, rng)).egraph);
  };
  const std::vector<Rewrite> rules = make_logic_rules();
  RunnerParams limits;
  limits.max_iterations = 4;
  limits.max_enodes = 1u << 20;

  EGraph once = fresh();
  RunnerParams one_iteration = limits;
  one_iteration.max_iterations = 1;
  ASSERT_EQ(run_rewriting(once, rules, one_iteration).stop_reason,
            StopReason::kIterLimit);
  const std::string after_one = egraph_dump(once);

  for (int k : {1, 2, 3}) {
    EGraph eg = fresh();
    const std::size_t classes = eg.num_classes();
    const std::size_t enodes = eg.num_enodes();
    ASSERT_NE(egraph_dump(eg), after_one);  // iteration 1 changes the graph
    int calls = 0;
    RunnerHooks hooks;
    hooks.stop = [&calls, k] { return ++calls == k; };
    RunnerReport report = run_rewriting(eg, rules, limits, hooks);
    EXPECT_EQ(calls, k);
    EXPECT_EQ(report.stop_reason, StopReason::kCancelled) << "k=" << k;
    if (k == 1) {
      EXPECT_EQ(eg.num_classes(), classes);
      EXPECT_EQ(eg.num_enodes(), enodes);
      EXPECT_TRUE(report.iterations.empty());
    } else {
      EXPECT_EQ(egraph_dump(eg), after_one) << "k=" << k;
      EXPECT_EQ(report.iterations.size(), 1u) << "k=" << k;
    }
  }
}

TEST(Runner, StopReasonNames) {
  EXPECT_STREQ(stop_reason_name(StopReason::kSaturated), "saturated");
  EXPECT_STREQ(stop_reason_name(StopReason::kIterLimit), "iteration-limit");
  EXPECT_STREQ(stop_reason_name(StopReason::kNodeLimit), "node-limit");
  EXPECT_STREQ(stop_reason_name(StopReason::kTimeLimit), "time-limit");
}

}  // namespace
}  // namespace emorphic
