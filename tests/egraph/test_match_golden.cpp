// Pins the search phase bit for bit: every iteration's ordered, capped
// per-rule match lists and the final e-graph counts, on the ten EPFL-style
// circuits and on a hand-built e-graph where both consensus rules match
// more often than the cap allows. The matcher is a throughput target; these
// constants are its behaviour, and any change to them changes what
// saturation applies and so QoR.

#include <gtest/gtest.h>

#include "benchgen/epfl.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

/// Saturates `eg` and folds every iteration's match lists, then the per-rule
/// totals and the final e-graph counts.
std::uint64_t fold_run(std::uint64_t h, EGraph& eg, const RunnerParams& params) {
  const std::vector<Rewrite> rules = make_logic_rules();
  RunnerHooks hooks;
  hooks.on_search = [&](const std::vector<RuleMatches>& lists) {
    for (const RuleMatches& list : lists) {
      h = fold(h, list.size());
      for (const auto& [cls, subst] : list) {
        h = fold(h, cls);
        for (EClassId id : subst) h = fold(h, id);
      }
    }
  };
  RunnerReport report = run_rewriting(eg, rules, params, hooks);
  h = fold(h, static_cast<std::uint64_t>(report.stop_reason));
  h = fold(h, report.iterations.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    h = fold(h, report.rule_matches[r]);
    h = fold(h, report.rule_applications[r]);
  }
  h = fold(h, eg.num_enodes());
  return fold(h, eg.num_classes());
}

RunnerParams capped(std::size_t iterations, std::size_t max_enodes,
                    std::size_t max_matches) {
  RunnerParams params;
  params.max_iterations = iterations;
  params.max_enodes = max_enodes;
  params.max_matches_per_rule = max_matches;
  params.time_limit_s = 1e9;  // a wall-clock stop would make the digest flaky
  return params;
}

TEST(Runner, GoldenMatchDigestOverEpfl) {
  // Caps bind on most rules; consensus matches on sqrt, square and sin
  // (beyond the cap on sqrt), xor-def on every circuit but arbiter.
  const RunnerParams params = capped(5, 20000, 500);
  std::uint64_t h = 0;
  for (const std::string& name : epfl_names()) {
    CircuitEGraph ce = aig_to_egraph(make_epfl(name));
    h = fold_run(h, ce.egraph, params);
  }
  // The digest folds each run's stop reason too: hyp's run stops at the
  // node limit after the fourth iteration, whose apply phase passes the
  // budget on created ids (kNodeLimit), and searches no fifth time.
  EXPECT_EQ(h, 0x3ece105c01e5085bull);
}

/// Consensus instances over shared sub-terms:
///   or(x, and(b, c))   with x = or(and(a, b), and(!a, c))
///   and(y, or(b, c))   with y = and(or(a, b), or(!a, c))
/// for every ordered triple of four variables. Merging x and y terms of
/// different triples gives those classes several stored bindings, each
/// reached from several parents, so both the replay order and the filter
/// show in the match lists; merging roots gives classes two matching forms.
EGraph build_consensus_egraph() {
  EGraph eg;
  std::vector<EClassId> v;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(eg.add_var(i));
  std::vector<EClassId> xs, ys, ors, ands;
  for (std::size_t a = 0; a < v.size(); ++a) {
    for (std::size_t b = 0; b < v.size(); ++b) {
      for (std::size_t c = 0; c < v.size(); ++c) {
        if (a == b || b == c || a == c) continue;
        EClassId na = eg.add_not(v[a]);
        xs.push_back(
            eg.add_or(eg.add_and(v[a], v[b]), eg.add_and(na, v[c])));
        ors.push_back(eg.add_or(xs.back(), eg.add_and(v[b], v[c])));
        ys.push_back(eg.add_and(eg.add_or(v[a], v[b]), eg.add_or(na, v[c])));
        ands.push_back(eg.add_and(ys.back(), eg.add_or(v[b], v[c])));
      }
    }
  }
  for (std::size_t i = 0; i + 5 < xs.size(); i += 5) {
    eg.merge(xs[i], xs[i + 5]);
    eg.merge(ys[i], ys[i + 5]);
  }
  for (std::size_t i = 0; i + 7 < ors.size(); i += 7) {
    eg.merge(ors[i], ors[i + 7]);
    eg.merge(ands[i], ands[i + 7]);
  }
  eg.rebuild();
  return eg;
}

TEST(Runner, GoldenConsensusMatchDigest) {
  const std::vector<Rewrite> rules = make_logic_rules();
  std::vector<std::size_t> consensus;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].name.rfind("consensus", 0) == 0) consensus.push_back(r);
  }
  ASSERT_EQ(consensus.size(), 2u);

  // Uncapped, both consensus rules match well above the cap used below, so
  // the capped run pins truncated prefixes, not whole lists.
  constexpr std::size_t kCap = 7;
  {
    EGraph eg = build_consensus_egraph();
    RunnerReport report = run_rewriting(
        eg, rules, capped(1, 1000000, 1000000));
    for (std::size_t r : consensus) {
      EXPECT_GT(report.rule_matches[r], 3 * kCap) << rules[r].name;
    }
  }
  EGraph eg = build_consensus_egraph();
  EXPECT_EQ(fold_run(0, eg, capped(3, 100000, kCap)),
            0xf2e15a924470cdacull);
}

}  // namespace
}  // namespace emorphic
