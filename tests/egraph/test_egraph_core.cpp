// Tests for the e-graph core overhaul: union-find canonicalization under
// long merge chains, the flat hashcons, head-operator-indexed matching as a
// drop-in for full scanning, and deterministic parallel matching.

#include <gtest/gtest.h>

#include "egraph/egraph.hpp"
#include "egraph/hashcons.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "util/rng.hpp"
#include "../test_helpers.hpp"

namespace emorphic {
namespace {

// --- union-find canonicalization --------------------------------------------

TEST(EGraphCore, LongMergeChainCanonicalizes) {
  EGraph eg;
  constexpr std::uint32_t kChain = 4096;
  std::vector<EClassId> vars;
  vars.reserve(kChain);
  for (std::uint32_t i = 0; i < kChain; ++i) vars.push_back(eg.add_var(i));
  // Give every var a parent so congruence repair has real work to do.
  EClassId probe = eg.add_var(kChain + 1);
  for (EClassId v : vars) eg.add_and(v, probe);

  // Merge into one class via a long chain, alternating direction so the
  // union-find sees both deep and shallow attachment orders.
  for (std::uint32_t i = 1; i < kChain; ++i) {
    if (i % 2 == 0) {
      eg.merge(vars[i - 1], vars[i]);
    } else {
      eg.merge(vars[i], vars[i - 1]);
    }
  }
  eg.rebuild();

  // All chain members canonicalize to one root, and every AND(v, probe)
  // parent collapsed into a single congruent class.
  EClassId root = eg.find(vars[0]);
  for (EClassId v : vars) EXPECT_EQ(eg.find(v), root);
  EXPECT_TRUE(eg.is_root(root));
  EXPECT_EQ(eg.lookup(ENode::and_of(root, eg.find(probe))),
            eg.lookup(ENode::and_of(eg.find(probe), root)));

  // check_invariants also verifies full path compression (the canonical-id
  // cache the parallel matcher depends on).
  std::string why;
  EXPECT_TRUE(eg.check_invariants(&why)) << why;
}

TEST(EGraphCore, RepeatedMergeRoundsStayCanonical) {
  EGraph eg;
  Rng rng(99);
  std::vector<EClassId> leaves;
  for (std::uint32_t i = 0; i < 64; ++i) leaves.push_back(eg.add_var(i));
  std::vector<EClassId> nodes = leaves;
  for (int i = 0; i < 500; ++i) {
    EClassId a = nodes[rng.next_below(nodes.size())];
    EClassId b = nodes[rng.next_below(nodes.size())];
    nodes.push_back(rng.chance(0.5) ? eg.add_and(a, b) : eg.add_or(a, b));
  }
  // Several merge/rebuild rounds, exercising repair cascades.
  for (int round = 0; round < 10; ++round) {
    for (int m = 0; m < 8; ++m) {
      EClassId a = eg.find(nodes[rng.next_below(nodes.size())]);
      EClassId b = eg.find(nodes[rng.next_below(nodes.size())]);
      if (a != b) eg.merge(a, b);
    }
    eg.rebuild();
    std::string why;
    ASSERT_TRUE(eg.check_invariants(&why)) << "round " << round << ": " << why;
  }
}

// Regression: merging one child of an e-node, rebuilding, then merging a
// *different* child used to strand the intermediate hash-cons key — repair
// re-inserted AND(a', b) under the new key but only class a' learned it, so
// the later merge of b could not erase it. The stranded key was unreachable
// (it held a non-root child id) but leaked, and broke the hashcons ↔
// live-e-node bijection that check_invariants now enforces.
TEST(EGraphCore, RebuildPurgesStrandedHashconsKeys) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId a2 = eg.add_var(2);
  EClassId b2 = eg.add_var(3);
  eg.add_and(a, b);

  // Round 1: merge child a — repair re-keys AND(a, b) to AND(a', b).
  eg.merge(a, a2);
  eg.rebuild();
  // Round 2: merge child b — the round-1 key must not be stranded.
  eg.merge(b, b2);
  eg.rebuild();

  std::string why;
  EXPECT_TRUE(eg.check_invariants(&why)) << why;
  EXPECT_EQ(eg.lookup(ENode::and_of(eg.find(a), eg.find(b))),
            eg.find(eg.lookup(ENode::and_of(eg.find(a), eg.find(b)))));
}

// --- the flat hashcons -------------------------------------------------------

TEST(EGraphCore, HashConsInsertFindErase) {
  HashCons table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(ENode::var(1)), nullptr);

  // Insert enough to force several growths.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    auto [slot, inserted] = table.try_emplace(ENode::var(i), i);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, i);
  }
  EXPECT_EQ(table.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const EClassId* found = table.find(ENode::var(i));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, i);
  }

  // try_emplace on a present key returns the existing slot.
  auto [slot, inserted] = table.try_emplace(ENode::var(7), 999);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 7u);

  // Erase half, then re-insert over the tombstones.
  for (std::uint32_t i = 0; i < 1000; i += 2) table.erase(ENode::var(i));
  EXPECT_EQ(table.size(), 500u);
  for (std::uint32_t i = 0; i < 1000; i += 2) {
    EXPECT_EQ(table.find(ENode::var(i)), nullptr);
  }
  for (std::uint32_t i = 0; i < 1000; i += 2) {
    EXPECT_TRUE(table.try_emplace(ENode::var(i), i + 1).second);
  }
  EXPECT_EQ(table.size(), 1000u);
  const EClassId* reinserted = table.find(ENode::var(10));
  ASSERT_NE(reinserted, nullptr);
  EXPECT_EQ(*reinserted, 11u);

  // insert() overwrites.
  table.insert(ENode::var(3), 42);
  EXPECT_EQ(*table.find(ENode::var(3)), 42u);
}

// --- rule index vs. full scan ------------------------------------------------

RunnerReport saturate(EGraph& eg, bool use_index, unsigned threads) {
  RunnerParams params;
  params.max_iterations = 3;
  params.max_enodes = 20000;
  params.max_matches_per_rule = 500;  // caps bind, so prefixes must agree too
  params.use_rule_index = use_index;
  params.match_threads = threads;
  return run_rewriting(eg, make_logic_rules(), params);
}

void expect_identical_runs(const RunnerReport& a, const EGraph& ega,
                           const RunnerReport& b, const EGraph& egb) {
  // Identical per-rule match sets imply identical counts per rule...
  EXPECT_EQ(a.rule_matches, b.rule_matches);
  EXPECT_EQ(a.rule_applications, b.rule_applications);
  // ...and identical merges imply the same e-graph trajectory.
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].matches, b.iterations[i].matches) << i;
    EXPECT_EQ(a.iterations[i].applied, b.iterations[i].applied) << i;
    EXPECT_EQ(a.iterations[i].enodes_after, b.iterations[i].enodes_after) << i;
    EXPECT_EQ(a.iterations[i].classes_after, b.iterations[i].classes_after)
        << i;
  }
  EXPECT_EQ(ega.num_classes(), egb.num_classes());
  EXPECT_EQ(ega.num_enodes(), egb.num_enodes());
}

TEST(EGraphCore, IndexedMatchingEqualsFullScan) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    EGraph indexed = testing::build_structured_egraph(12, 150, seed);
    EGraph fullscan = testing::build_structured_egraph(12, 150, seed);
    RunnerReport ri = saturate(indexed, /*use_index=*/true, 1);
    RunnerReport rf = saturate(fullscan, /*use_index=*/false, 1);
    expect_identical_runs(ri, indexed, rf, fullscan);
    std::string why;
    EXPECT_TRUE(indexed.check_invariants(&why)) << why;
  }
}

// --- deterministic parallel matching ----------------------------------------

TEST(EGraphCore, ParallelMatchingIsDeterministic) {
  for (std::uint64_t seed : {5u, 23u}) {
    EGraph serial = testing::build_structured_egraph(12, 150, seed);
    EGraph threaded = testing::build_structured_egraph(12, 150, seed);
    RunnerReport rs = saturate(serial, /*use_index=*/true, 1);
    RunnerReport rt = saturate(threaded, /*use_index=*/true, 4);
    expect_identical_runs(rs, serial, rt, threaded);
    std::string why;
    EXPECT_TRUE(threaded.check_invariants(&why)) << why;
  }
}

TEST(EGraphCore, ParallelMatchingRepeatsBitIdentically) {
  // Two threaded runs of the same workload agree with each other (no
  // scheduling nondeterminism leaks into the result).
  EGraph a = testing::build_structured_egraph(10, 120, 77);
  EGraph b = testing::build_structured_egraph(10, 120, 77);
  RunnerReport ra = saturate(a, /*use_index=*/true, 4);
  RunnerReport rb = saturate(b, /*use_index=*/true, 4);
  expect_identical_runs(ra, a, rb, b);
}

}  // namespace
}  // namespace emorphic
