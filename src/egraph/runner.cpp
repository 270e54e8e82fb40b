#include "egraph/runner.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace emorphic {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kSaturated:
      return "saturated";
    case StopReason::kIterLimit:
      return "iteration-limit";
    case StopReason::kNodeLimit:
      return "node-limit";
    case StopReason::kTimeLimit:
      return "time-limit";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// Head-operator index: for each operator, the canonical classes containing
/// at least one e-node with that operator. Built once per search from the
/// per-class operator counts; rules whose LHS root is an operator then only
/// visit their candidate bucket instead of every class.
struct RuleIndex {
  std::array<std::vector<EClassId>, kNumOps> by_op;

  void build(const OpPresence& presence, const std::vector<EClassId>& ids) {
    for (EClassId id : ids) {
      for (std::size_t op = 0; op < kNumOps; ++op) {
        if (presence.count(id, static_cast<Op>(op)) != 0) {
          by_op[op].push_back(id);
        }
      }
    }
  }
};

}  // namespace

std::vector<RuleMatches> search_rules(const EGraph& egraph,
                                      const std::vector<Rewrite>& rules,
                                      const RunnerParams& params,
                                      ThreadPool* pool,
                                      std::vector<std::size_t>* steps) {
  // The per-class operator statistics serve the matcher's pruning and join
  // ordering in *both* modes (so emission order — and thereby the capped
  // match prefix — is identical); use_rule_index only controls whether
  // rules restrict their root candidates to the per-operator buckets.
  const std::vector<EClassId> ids = egraph.class_ids();
  OpPresence presence;
  presence.build(egraph, ids);
  RuleIndex index;
  if (params.use_rule_index) index.build(presence, ids);
  auto candidates_for = [&](const Pattern& lhs) -> const std::vector<EClassId>& {
    if (params.use_rule_index) {
      if (std::optional<Op> op = lhs.root_op()) {
        return index.by_op[op_index(*op)];
      }
    }
    return ids;
  };

  // Each rule searches its whole candidate list, in order, through one
  // memo, so the list and step count of a rule are the same on any thread.
  // Both are built in locals: neighbouring rules' slots share cache lines.
  const std::size_t limit = params.max_matches_per_rule;
  std::vector<RuleMatches> lists(rules.size());
  auto search_rule = [&](std::size_t r) {
    const Pattern& lhs = rules[r].lhs;
    MatchMemo memo;
    RuleMatches out;
    std::size_t visits = 0;
    std::vector<Subst> substs;
    for (EClassId id : candidates_for(lhs)) {
      if (out.size() >= limit) break;
      substs.clear();
      match_in_class(egraph, lhs, id, substs, limit - out.size(), &presence,
                     &memo, &visits);
      for (Subst& s : substs) out.emplace_back(id, std::move(s));
    }
    lists[r] = std::move(out);
    if (steps != nullptr) (*steps)[r] += visits;
  };
  if (pool == nullptr) {
    for (std::size_t r = 0; r < rules.size(); ++r) search_rule(r);
  } else {
    pool->parallel_for(rules.size(), search_rule);
  }
  return lists;
}

RunnerReport run_rewriting(EGraph& egraph, const std::vector<Rewrite>& rules,
                           const RunnerParams& params,
                           const RunnerHooks& hooks) {
  RunnerReport report;
  report.rule_matches.assign(rules.size(), 0);
  report.rule_applications.assign(rules.size(), 0);
  report.rule_search_steps.assign(rules.size(), 0);
  Timer total;

  // The match phase requires a clean e-graph (read-only concurrent finds);
  // a no-op when the caller already rebuilt.
  egraph.rebuild();

  // One rule per task, so more threads than rules would idle.
  const std::size_t threads = std::min<std::size_t>(
      rules.size(), params.match_threads != 0
                        ? params.match_threads
                        : std::max(1u, std::thread::hardware_concurrency()));
  // lint:allow(thread-in-library) RunnerParams::match_threads
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    Timer iter_timer;
    IterationStats stats;
    std::size_t enodes_before = egraph.num_enodes();
    std::size_t classes_before = egraph.num_classes();

    // Phase 1: search. Matches are gathered against a frozen e-graph so the
    // rule application order cannot influence what is found (the
    // phase-ordering freedom equality saturation is prized for). The match
    // list per rule is the first `max_matches_per_rule` substitutions in
    // class order — identical for the serial and threaded paths. The time
    // limit is polled between iterations only (never mid-search), which is
    // what keeps results independent of match_threads.
    std::vector<RuleMatches> all_matches =
        search_rules(egraph, rules, params, pool ? &*pool : nullptr,
                     &report.rule_search_steps);
    if (hooks.on_search) hooks.on_search(all_matches);
    if (hooks.stop && hooks.stop()) {
      report.stop_reason = StopReason::kCancelled;
      break;
    }
    for (std::size_t r = 0; r < rules.size(); ++r) {
      stats.matches += all_matches[r].size();
      report.rule_matches[r] += all_matches[r].size();
    }

    // Phase 2: apply. Instantiating the RHS only ever adds information.
    // The node budget also caps the ids ever created, so the phase can stop
    // early without the live e-node count reaching it.
    bool apply_capped = false;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      for (auto& [cls, subst] : all_matches[r]) {
        EClassId rhs = instantiate(egraph, rules[r].rhs, subst);
        if (egraph.find(cls) != egraph.find(rhs)) {
          egraph.merge(cls, rhs);
          ++stats.applied;
          ++report.rule_applications[r];
        }
        if (egraph.num_classes_created() > params.max_enodes) break;
      }
      apply_capped = egraph.num_classes_created() > params.max_enodes;
      if (apply_capped) break;
    }

    // Phase 3: rebuild (one deferred congruence restoration per iteration).
    egraph.rebuild();

    stats.enodes_after = egraph.num_enodes();
    stats.classes_after = egraph.num_classes();
    stats.seconds = iter_timer.seconds();
    report.iterations.push_back(stats);

    if (hooks.stop && hooks.stop()) {
      report.stop_reason = StopReason::kCancelled;
      break;
    }
    // A capped apply phase stops the run too: every later search would
    // find matches the cap no longer lets it apply.
    if (apply_capped || stats.enodes_after >= params.max_enodes) {
      report.stop_reason = StopReason::kNodeLimit;
      break;
    }
    if (total.seconds() > params.time_limit_s) {
      report.stop_reason = StopReason::kTimeLimit;
      break;
    }
    if (stats.enodes_after == enodes_before &&
        stats.classes_after == classes_before) {
      report.stop_reason = StopReason::kSaturated;
      break;
    }
    report.stop_reason = StopReason::kIterLimit;
  }

  report.total_seconds = total.seconds();
  return report;
}

}  // namespace emorphic
