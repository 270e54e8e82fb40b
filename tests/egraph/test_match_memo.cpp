// The match memo (MatchMemo) must be invisible: with or without it, every
// rule emits the same ordered match list at every class and cap, serial or
// sharded. And it must pay: the consensus rules' search steps on the adder
// e-graph fall at least fivefold.

#include <gtest/gtest.h>

#include <limits>

#include "../test_helpers.hpp"
#include "benchgen/epfl.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"
#include "util/thread_pool.hpp"

namespace emorphic {
namespace {

constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

/// A structured random e-graph with cyclic classes, after one saturation
/// round: x merged with and(x, x) and with and(x, y) gives classes holding
/// an e-node over themselves, and the round's idempotence and absorption
/// merges add more.
EGraph oracle_egraph(std::uint64_t seed) {
  EGraph eg = testing::build_structured_egraph(8, 120, seed);
  Rng rng(seed + 1);
  const std::vector<EClassId> ids = eg.class_ids();
  for (int i = 0; i < 6; ++i) {
    EClassId x = ids[rng.next_below(ids.size())];
    EClassId y = ids[rng.next_below(ids.size())];
    eg.merge(x, eg.add_and(x, x));
    eg.merge(x, eg.add_and(x, y));
  }
  eg.rebuild();
  RunnerParams params;
  params.max_iterations = 1;
  params.max_matches_per_rule = 200;
  run_rewriting(eg, make_logic_rules(), params);
  return eg;
}

TEST(MatchMemo, OnlyDeepSubPatternsAreMemoized) {
  std::vector<std::string> memoized;
  for (const Rewrite& rule : make_logic_rules()) {
    const std::vector<Pattern::Node>& nodes = rule.lhs.nodes();
    EXPECT_FALSE(nodes[rule.lhs.root()].memoize) << rule.name;
    for (const Pattern::Node& n : nodes) {
      EXPECT_EQ(n.memoize, &n != &nodes[rule.lhs.root()] && !n.is_var &&
                               n.structure >= 2)
          << rule.name;
    }
    for (const Pattern::Node& n : nodes) {
      if (n.memoize) {
        memoized.push_back(rule.name);
        break;
      }
    }
  }
  EXPECT_EQ(memoized, (std::vector<std::string>{"consensus-or",
                                                "consensus-and", "xor-def"}));
}

TEST(MatchMemo, VariableMasksCoverEachSubtree) {
  std::vector<std::string> names;
  Pattern p = Pattern::compile(
      Pat::or_(Pat::and_(Pat::v("a"), Pat::not_(Pat::v("b"))),
               Pat::and_(Pat::not_(Pat::v("a")), Pat::c1())),
      names);
  const std::vector<Pattern::Node>& nodes = p.nodes();
  EXPECT_EQ(nodes[p.root()].var_mask, 0b11u);
  EXPECT_EQ(nodes[nodes[p.root()].children[0]].var_mask, 0b11u);
  EXPECT_EQ(nodes[nodes[p.root()].children[1]].var_mask, 0b01u);
}

TEST(MatchMemo, PatternsAreLimitedTo64Variables) {
  Pat wide = Pat::v("v0");
  for (int i = 1; i < 64; ++i) wide = Pat::and_(wide, Pat::v("v" + std::to_string(i)));
  std::vector<std::string> names;
  EXPECT_NO_THROW(Pattern::compile(wide, names));
  EXPECT_EQ(names.size(), 64u);
  EXPECT_THROW(Pattern::compile(Pat::and_(wide, Pat::v("v64")), names),
               std::invalid_argument);
}

TEST(MatchMemo, EqualsPlainSearchForEveryRule) {
  const std::vector<Rewrite> rules = make_logic_rules();
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    const EGraph eg = oracle_egraph(seed);
    const std::vector<EClassId> ids = eg.class_ids();
    OpPresence presence;
    presence.build(eg, ids);
    bool cyclic = false;
    for (EClassId id : ids) {
      for (const ENode& n : eg.eclass(id).nodes) {
        for (unsigned c = 0; c < n.arity(); ++c) {
          cyclic = cyclic || eg.find(n.children[c]) == id;
        }
      }
    }
    ASSERT_TRUE(cyclic) << "seed " << seed;

    const OpPresence* const with_and_without[] = {&presence, nullptr};
    for (const OpPresence* stats : with_and_without) {
      for (const Rewrite& rule : rules) {
        for (std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{500},
                                  kUncapped}) {
          MatchMemo memo;
          std::size_t found = 0;
          for (EClassId id : ids) {
            std::vector<Subst> plain, memoized;
            match_in_class(eg, rule.lhs, id, plain, limit, stats);
            match_in_class(eg, rule.lhs, id, memoized, limit, stats, &memo);
            ASSERT_EQ(memoized, plain)
                << rule.name << " class " << id << " limit " << limit
                << " seed " << seed << " presence " << (stats != nullptr);
            found += plain.size();
          }
          if (rule.name.rfind("consensus", 0) != 0 && rule.name != "xor-def") {
            EXPECT_EQ(memo.entries(), 0u) << rule.name;
          } else if (found > 0) {
            EXPECT_GT(memo.entries(), 0u) << rule.name;
          }
        }
      }
    }
  }
}

TEST(MatchMemo, ThreadedSearchEqualsSerial) {
  const std::vector<Rewrite> rules = make_logic_rules();
  ThreadPool pool(4);
  for (std::uint64_t seed : {5u, 23u}) {
    const EGraph eg = oracle_egraph(seed);
    for (std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{500},
                            kUncapped}) {
      RunnerParams params;
      params.max_matches_per_rule = cap;
      std::vector<std::size_t> serial_steps(rules.size(), 0);
      std::vector<std::size_t> threaded_steps(rules.size(), 0);
      std::vector<RuleMatches> serial =
          search_rules(eg, rules, params, nullptr, &serial_steps);
      std::vector<RuleMatches> threaded =
          search_rules(eg, rules, params, &pool, &threaded_steps);
      EXPECT_EQ(threaded, serial) << "seed " << seed << " cap " << cap;
      EXPECT_EQ(threaded_steps, serial_steps)
          << "seed " << seed << " cap " << cap;
      for (std::size_t r = 0; r < rules.size(); ++r) {
        EXPECT_GT(serial_steps[r], 0u) << rules[r].name;
      }
    }
  }
}

TEST(MatchMemo, ConsensusStepsFallFivefoldOnAdder) {
  // perfbench's rewrite settings for a circuit of the adder's size. After
  // each search, the hook redoes the consensus rules' search on the same
  // frozen e-graph without a memo: the lists must agree, and the memo must
  // save at least four of every five pattern-node visits.
  CircuitEGraph ce = aig_to_egraph(make_epfl("adder"));
  const std::vector<Rewrite> rules = make_logic_rules();
  RunnerParams params;
  params.max_iterations = 5;
  params.max_enodes = 60000;
  params.max_matches_per_rule = 4000;
  params.time_limit_s = 1e9;
  std::vector<std::size_t> consensus;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].name.rfind("consensus", 0) == 0) consensus.push_back(r);
  }
  ASSERT_EQ(consensus.size(), 2u);

  std::size_t plain_steps = 0;
  RunnerHooks hooks;
  hooks.on_search = [&](const std::vector<RuleMatches>& lists) {
    const EGraph& eg = ce.egraph;
    const std::vector<EClassId> ids = eg.class_ids();
    OpPresence presence;
    presence.build(eg, ids);
    for (std::size_t r : consensus) {
      const Op root = *rules[r].lhs.root_op();
      RuleMatches plain;
      for (EClassId id : ids) {
        if (plain.size() >= params.max_matches_per_rule) break;
        if (!presence.may_contain(id, root)) continue;
        std::vector<Subst> substs;
        match_in_class(eg, rules[r].lhs, id, substs,
                       params.max_matches_per_rule - plain.size(), &presence,
                       nullptr, &plain_steps);
        for (Subst& s : substs) plain.emplace_back(id, std::move(s));
      }
      EXPECT_EQ(lists[r], plain) << rules[r].name;
    }
  };
  RunnerReport report = run_rewriting(ce.egraph, rules, params, hooks);
  ASSERT_EQ(report.iterations.size(), 5u);
  std::size_t memo_steps = 0;
  for (std::size_t r : consensus) memo_steps += report.rule_search_steps[r];
  EXPECT_GT(memo_steps, 0u);
  EXPECT_GE(plain_steps, 5 * memo_steps)
      << "plain " << plain_steps << " memoized " << memo_steps;
}

}  // namespace
}  // namespace emorphic
