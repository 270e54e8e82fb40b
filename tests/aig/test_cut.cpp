#include "aig/cut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "../test_helpers.hpp"
#include "aig/choice.hpp"
#include "aig/sim.hpp"
#include "benchgen/epfl.hpp"
#include "opt/resyn.hpp"

namespace emorphic {
namespace {

/// Fold an enumeration into a running digest: for every node 0..n-1, each
/// cut's size, leaves and truth table in list order, then a node separator.
std::uint64_t fold_cuts(std::uint64_t h, const CutManager& cuts,
                        std::size_t n) {
  for (Var v = 0; v < n; ++v) {
    for (const Cut& c : cuts.cuts(v)) {
      h = splitmix64(h ^ c.size);
      for (unsigned i = 0; i < c.size; ++i) h = splitmix64(h ^ c.leaves[i]);
      h = splitmix64(h ^ c.tt);
    }
    h = splitmix64(h ^ 0xfeed);
  }
  return h;
}

std::uint64_t leaf_signature(const Cut& c) {
  std::uint64_t sig = 0;
  for (unsigned i = 0; i < c.size; ++i) sig |= 1ull << (c.leaves[i] & 63);
  return sig;
}

/// The priority-cut algorithm written plainly, as the reference the
/// optimized kernel must reproduce: merge every fanin-cut pair together
/// with its truth table, drop dominated cuts by `subset_of` alone, sort by
/// (size, average leaf level) with std::sort, keep `num_cuts`, append the
/// trivial cut. Plain AIGs only. `aliases` counts the dominance checks in
/// which the 64-bit leaf signatures pass but `subset_of` fails.
std::vector<std::vector<Cut>> reference_cuts(const Aig& aig,
                                             const CutParams& params,
                                             std::size_t* aliases) {
  const std::size_t n = aig.num_nodes();
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::vector<Cut>> out(n);
  out[0].push_back(Cut{});
  auto trivial = [](Var v) {
    Cut c;
    c.size = 1;
    c.leaves[0] = v;
    c.tt = tt_var(0, 1);
    return c;
  };
  auto dominates = [&](const Cut& small, const Cut& big) {
    const bool sig_ok = (leaf_signature(small) & ~leaf_signature(big)) == 0;
    const bool subset = small.subset_of(big);
    if (sig_ok && !subset) ++*aliases;
    return subset;
  };
  for (Var v = 1; v < n; ++v) {
    if (!aig.is_and(v)) {
      out[v].push_back(trivial(v));
      continue;
    }
    const Lit f0 = aig.fanin0(v);
    const Lit f1 = aig.fanin1(v);
    level[v] = 1 + std::max(level[lit_var(f0)], level[lit_var(f1)]);
    std::vector<Cut> result;
    for (const Cut& a : out[lit_var(f0)]) {
      for (const Cut& b : out[lit_var(f1)]) {
        Cut m;
        std::vector<Var> leaves(a.leaves.begin(), a.leaves.begin() + a.size);
        leaves.insert(leaves.end(), b.leaves.begin(), b.leaves.begin() + b.size);
        std::sort(leaves.begin(), leaves.end());
        leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
        if (leaves.size() > params.cut_size) continue;
        m.size = static_cast<std::uint8_t>(leaves.size());
        std::copy(leaves.begin(), leaves.end(), m.leaves.begin());
        std::array<std::uint8_t, 6> pa{}, pb{};
        for (unsigned k = 0; k < a.size; ++k) {
          pa[k] = static_cast<std::uint8_t>(
              std::find(leaves.begin(), leaves.end(), a.leaves[k]) -
              leaves.begin());
        }
        for (unsigned k = 0; k < b.size; ++k) {
          pb[k] = static_cast<std::uint8_t>(
              std::find(leaves.begin(), leaves.end(), b.leaves[k]) -
              leaves.begin());
        }
        Tt ta = tt_expand(a.tt, a.size, m.size, pa);
        Tt tb = tt_expand(b.tt, b.size, m.size, pb);
        if (lit_is_compl(f0)) ta = tt_not(ta, m.size);
        if (lit_is_compl(f1)) tb = tt_not(tb, m.size);
        m.tt = ta & tb & tt_mask(m.size);
        bool dominated = false;
        for (const Cut& c : result) {
          if (dominates(c, m)) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;
        std::erase_if(result, [&](const Cut& c) { return dominates(m, c); });
        result.push_back(m);
      }
    }
    auto key = [&](const Cut& c) {
      std::uint64_t sum = 0;
      for (unsigned i = 0; i < c.size; ++i) sum += level[c.leaves[i]];
      return c.size == 0 ? 0.0 : static_cast<double>(sum) / c.size;
    };
    std::sort(result.begin(), result.end(), [&](const Cut& x, const Cut& y) {
      if (x.size != y.size) return x.size < y.size;
      return key(x) < key(y);
    });
    if (result.size() > params.num_cuts) result.resize(params.num_cuts);
    result.push_back(trivial(v));
    out[v] = std::move(result);
  }
  return out;
}

/// First difference between an enumeration and the reference ("" = none).
std::string diff_against_reference(const CutManager& cuts,
                                   const std::vector<std::vector<Cut>>& ref) {
  for (Var v = 0; v < ref.size(); ++v) {
    const auto& got = cuts.cuts(v);
    if (got.size() != ref[v].size()) {
      return "node " + std::to_string(v) + ": " + std::to_string(got.size()) +
             " vs " + std::to_string(ref[v].size()) + " cuts";
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].size != ref[v][i].size || got[i].tt != ref[v][i].tt ||
          got[i].leaves != ref[v][i].leaves) {
        return "node " + std::to_string(v) + ": cut " + std::to_string(i) +
               " differs";
      }
    }
  }
  return "";
}

TEST(Cut, TrivialCutsOnPis) {
  Aig aig;
  Var a = aig.add_pi();
  aig.add_po(make_lit(a));
  CutManager cuts(aig, CutParams{4, 8});
  ASSERT_EQ(cuts.cuts(a).size(), 1u);
  EXPECT_TRUE(cuts.cuts(a)[0].is_trivial(a));
  EXPECT_EQ(cuts.cuts(a)[0].tt, tt_var(0, 1));
}

TEST(Cut, SimpleAndHasFaninCut) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit f = aig.make_and(a, lit_not(b));
  aig.add_po(f);
  CutManager cuts(aig, CutParams{4, 8});
  const auto& cs = cuts.cuts(lit_var(f));
  // Expect the {a,b} cut plus the trivial cut.
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].size, 2u);
  // tt = a & !b with leaves sorted (a < b)
  EXPECT_EQ(cs[0].tt, tt_var(0, 2) & tt_not(tt_var(1, 2), 2));
  EXPECT_TRUE(cs[1].is_trivial(lit_var(f)));
}

TEST(Cut, SubsetDomination) {
  Cut small;
  small.size = 2;
  small.leaves[0] = 1;
  small.leaves[1] = 3;
  Cut big;
  big.size = 3;
  big.leaves[0] = 1;
  big.leaves[1] = 2;
  big.leaves[2] = 3;
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  EXPECT_TRUE(small.subset_of(small));
}

TEST(Cut, CutSizeNeverExceedsK) {
  Rng rng(5);
  Aig aig = testing::random_aig(8, 3, 80, rng);
  for (unsigned k = 2; k <= 6; ++k) {
    CutManager cuts(aig, CutParams{k, 8});
    for (Var v = 1; v < aig.num_nodes(); ++v) {
      for (const Cut& c : cuts.cuts(v)) {
        EXPECT_LE(c.size, k);
      }
    }
  }
}

TEST(Cut, NumCutsRespected) {
  Rng rng(6);
  Aig aig = testing::random_aig(8, 3, 100, rng);
  CutManager cuts(aig, CutParams{4, 3});
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    EXPECT_LE(cuts.cuts(v).size(), 4u);  // 3 priority + 1 trivial
  }
}

/// Property: every cut's truth table agrees with simulation through the
/// cone — checked by plugging exhaustive leaf patterns into the cut leaves.
TEST(Cut, TruthTablesMatchSimulation) {
  Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    Aig aig = testing::random_aig(6, 2, 40, rng);
    CutManager cuts(aig, CutParams{4, 8});
    // Assign each variable its simulated 64-bit word on random inputs; then
    // check cut tts by evaluating leaves' words through the table.
    std::vector<std::uint64_t> pi_words(aig.num_pis());
    for (auto& w : pi_words) w = rng.next();
    auto value = simulate_words(aig, pi_words);
    for (Var v = 1; v < aig.num_nodes(); ++v) {
      if (!aig.is_and(v)) continue;
      for (const Cut& cut : cuts.cuts(v)) {
        std::uint64_t expect = value[v];
        std::uint64_t got = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
          unsigned minterm = 0;
          for (unsigned l = 0; l < cut.size; ++l) {
            minterm |= ((value[cut.leaves[l]] >> bit) & 1ull) << l;
          }
          got |= ((cut.tt >> minterm) & 1ull) << bit;
        }
        EXPECT_EQ(got, expect) << "node " << v << " cut size "
                               << static_cast<int>(cut.size);
      }
    }
  }
}

TEST(Cut, ConstantFaninFoldsIntoCutFunction) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  Lit c = make_lit(aig.add_pi());
  Lit f = aig.make_and(aig.make_and(a, b), aig.make_and(b, c));
  aig.add_po(f);
  CutManager cuts(aig, CutParams{4, 8});
  // The 3-leaf cut {a,b,c} computes a&b&c (b's sharing folds).
  bool found = false;
  for (const Cut& cut : cuts.cuts(lit_var(f))) {
    if (cut.size == 3) {
      EXPECT_EQ(cut.tt,
                tt_var(0, 3) & tt_var(1, 3) & tt_var(2, 3));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cut, RejectsInvalidCutSize) {
  // cut_size < 2 cannot cover an AND node and > kMaxCutSize overflows
  // Cut::leaves: both must throw in every build mode, not just assert.
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_and(a, b));
  EXPECT_THROW(CutManager(aig, CutParams{1, 8}), std::invalid_argument);
  EXPECT_THROW(CutManager(aig, CutParams{0, 8}), std::invalid_argument);
  EXPECT_THROW(CutManager(aig, CutParams{kMaxCutSize + 1, 8}),
               std::invalid_argument);
}

TEST(Cut, ArenaReuseMatchesFreshEnumeration) {
  // One arena carried across CutManagers (including a larger AIG in
  // between, so stale slots exist) must reproduce fresh-state cuts exactly.
  Rng rng(61);
  Aig big = testing::random_aig(8, 4, 120, rng);
  Aig small = testing::random_aig(6, 3, 40, rng);
  CutArena arena;
  CutManager warmup(big, CutParams{4, 8}, &arena);

  CutManager fresh(small, CutParams{4, 8});
  CutManager reused(small, CutParams{4, 8}, &arena);
  for (Var v = 0; v < small.num_nodes(); ++v) {
    const auto& a = fresh.cuts(v);
    const auto& b = reused.cuts(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].size, b[i].size);
      EXPECT_EQ(a[i].tt, b[i].tt);
      EXPECT_EQ(a[i].leaves, b[i].leaves);
    }
  }
}

/// Pins the cut lists of every EPFL circuit, as generated and after the
/// `dch` substitute, under three (K, C) settings: any change to which cuts
/// survive, their order or their truth tables changes the digest. The
/// kernel is a throughput target; this constant is its behaviour.
TEST(Cut, GoldenDigestOverEpfl) {
  const std::pair<unsigned, unsigned> configs[] = {{6, 8}, {6, 6}, {4, 8}};
  CutArena arena;
  std::uint64_t h = 0;
  for (const std::string& name : epfl_names()) {
    const Aig generated = make_epfl(name);
    const Aig variants[] = {generated, dch_substitute(generated)};
    for (const Aig& aig : variants) {
      for (const auto& [k, c] : configs) {
        CutManager cuts(aig, CutParams{k, c}, &arena);
        h = fold_cuts(h, cuts, aig.num_nodes());
      }
    }
  }
  EXPECT_EQ(h, 0x873a733115da6eceull);
}

/// Choice rings by reassociation: every AND v = (c & d) & b whose first
/// fanin is a positive AND edge gets the alternative c & (d & b) when that
/// node is new. Deterministic in the seed, with real fanin cones under
/// every ring.
ChoiceAig reassociation_choices(std::uint64_t seed) {
  Rng rng(seed);
  ChoiceAig caig;
  caig.aig = testing::random_aig(10, 4, 200, rng);
  Aig& aig = caig.aig;
  const Var plain_nodes = static_cast<Var>(aig.num_nodes());
  std::vector<std::pair<Var, Var>> members;
  std::vector<bool> used(plain_nodes, false);
  for (Var v = 1; v < plain_nodes; ++v) {
    if (!aig.is_and(v)) continue;
    const Lit a = aig.fanin0(v);
    if (lit_is_compl(a) || !aig.is_and(lit_var(a))) continue;
    const Var before = static_cast<Var>(aig.num_nodes());
    const Lit inner = aig.make_and(aig.fanin1(lit_var(a)), aig.fanin1(v));
    const Lit alt = aig.make_and(aig.fanin0(lit_var(a)), inner);
    if (lit_is_compl(alt) || lit_var(alt) < before) continue;
    members.emplace_back(v, lit_var(alt));
  }
  caig.choices = AigChoices(aig.num_nodes());
  for (const auto& [rep, alt] : members) {
    caig.choices.add_member(rep, alt, false);
  }
  EXPECT_EQ(caig.choices.finalize(aig), 0u);
  EXPECT_EQ(caig.choices.check(aig), "");
  return caig;
}

/// The choice-aware path (ring members merged into representatives) is
/// pinned the same way as the plain one.
TEST(Cut, GoldenDigestWithChoices) {
  std::uint64_t h = 0;
  for (std::uint64_t seed : {5u, 29u}) {
    ChoiceAig caig = reassociation_choices(seed);
    ASSERT_GT(caig.choices.num_rings(), 10u) << "seed " << seed;
    for (unsigned k : {4u, 6u}) {
      CutManager cuts(caig.aig, caig.choices, CutParams{k, 8});
      h = fold_cuts(h, cuts, caig.aig.num_nodes());
    }
  }
  EXPECT_EQ(h, 0x24df0d61a4d08fc0ull);
}

TEST(Cut, MatchesReferenceEnumeration) {
  for (std::uint64_t seed : {3u, 41u, 97u}) {
    Rng rng(seed);
    Aig aig = testing::random_aig(10, 4, 300, rng);
    for (unsigned k : {2u, 4u, 6u}) {
      for (unsigned c : {1u, 3u, 8u}) {
        std::size_t aliases = 0;
        CutManager cuts(aig, CutParams{k, c});
        EXPECT_EQ(diff_against_reference(
                      cuts, reference_cuts(aig, CutParams{k, c}, &aliases)),
                  "")
            << "seed=" << seed << " k=" << k << " c=" << c;
      }
    }
  }
}

/// With more than 128 PIs, distinct leaves share signature bits (leaf mod
/// 64), so a signature test passes for cuts that are not subsets. Dominance
/// must still follow `subset_of`: the signature is a necessary condition
/// only, and treating it as sufficient would drop cuts the reference keeps.
TEST(Cut, SignatureAliasingDoesNotDropCuts) {
  Rng rng(2024);
  Aig aig = testing::random_aig(200, 8, 600, rng);
  std::size_t aliases = 0;
  for (unsigned k : {4u, 6u}) {
    CutManager cuts(aig, CutParams{k, 8});
    EXPECT_EQ(diff_against_reference(
                  cuts, reference_cuts(aig, CutParams{k, 8}, &aliases)),
              "")
        << "k=" << k;
  }
  EXPECT_GT(aliases, 0u) << "fixture must produce signature collisions";
}

}  // namespace
}  // namespace emorphic
