#pragma once
// The equality-saturation runner (egg's `Runner` [16]): repeatedly searches
// all rules, applies the matches, and restores congruence, until the e-graph
// saturates or a resource limit fires.
//
// E-morphic deliberately runs *few* iterations (5 in the paper, Sec. IV-A):
// a handful of non-destructive rounds already multiplies the number of
// equivalence classes far beyond what ABC's `dch` choices record, while
// keeping node counts and runtime in check (Sec. I, insight 1).
//
// Each iteration is three phases:
//   1. search — e-matching against a frozen e-graph. Rules are indexed by
//      their head operator, so a rule only visits classes that contain at
//      least one e-node with that operator; the search is read-only and can
//      be threaded across rules (`RunnerParams::match_threads`). Each
//      rule's search shares one MatchMemo across its classes.
//   2. apply — all collected matches are instantiated and merged serially.
//   3. rebuild — one deferred congruence restoration for the whole batch.
// The match lists are identical whatever the thread count and whether the
// index is on, so saturation results are bit-for-bit reproducible.

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "egraph/pattern.hpp"

namespace emorphic {

class ThreadPool;

/// Resource limits and search configuration for one saturation run.
struct RunnerParams {
  /// Upper bound on search/apply/rebuild iterations.
  std::size_t max_iterations = 5;
  /// Stop once the e-graph holds this many e-nodes (the paper's memory cap).
  std::size_t max_enodes = 250000;
  /// Wall-clock budget for the whole run, in seconds. Polled between
  /// iterations (an over-budget iteration finishes first), so hitting it
  /// does not perturb the per-iteration results.
  double time_limit_s = 30.0;
  /// Cap on matches gathered per rule per iteration: keeps pathological
  /// rules (associativity on deep chains) from starving the others.
  std::size_t max_matches_per_rule = 20000;
  /// Worker threads for the read-only match phase, one rule's search per
  /// task (at most one thread per rule): 1 = serial (default), 0 = hardware
  /// concurrency. Results and search steps are independent of it.
  unsigned match_threads = 1;
  /// Consult the head-operator rule index so each rule only visits candidate
  /// classes. Off = scan every class per rule (the pre-index behavior; kept
  /// as a correctness oracle for tests and benches).
  bool use_rule_index = true;
};

/// Why a saturation run ended.
enum class StopReason {
  kSaturated,
  kIterLimit,
  kNodeLimit,  // an iteration left max_enodes live e-nodes, or its apply
               // phase passed max_enodes on created ids
  kTimeLimit,
  kCancelled,  // RunnerHooks::stop asked to stop
};

/// Printable name of a StopReason.
const char* stop_reason_name(StopReason reason);

/// Per-iteration statistics (RunnerReport::iterations).
struct IterationStats {
  std::size_t matches = 0;       // substitutions found
  std::size_t applied = 0;       // merges that changed the e-graph
  std::size_t enodes_after = 0;
  std::size_t classes_after = 0;
  double seconds = 0.0;
};

/// Everything a finished saturation run reports.
struct RunnerReport {
  StopReason stop_reason = StopReason::kSaturated;
  std::vector<IterationStats> iterations;
  double total_seconds = 0.0;
  /// Per-rule totals across all iterations (parallel to the rule vector).
  std::vector<std::size_t> rule_matches;
  std::vector<std::size_t> rule_applications;
  /// Per-rule matcher pattern-node visits across all iterations, a memo
  /// replay counting as one: the machine-independent cost of the search.
  /// A rule's whole search runs on one thread through one memo, so the
  /// count does not depend on `match_threads`.
  std::vector<std::size_t> rule_search_steps;
};

/// One rule's matches for one iteration: (matched class, substitution).
using RuleMatches = std::vector<std::pair<EClassId, Subst>>;

/// Progress callbacks for a rewriting run (all optional).
struct RunnerHooks {
  /// Called after every search phase with each rule's ordered match list,
  /// before any of them is applied.
  std::function<void(const std::vector<RuleMatches>&)> on_search;
  /// Polled right after each search phase (after on_search, before any
  /// match is applied) and after each iteration; return true to stop early
  /// (reported as StopReason::kCancelled). A stop after a search applies
  /// nothing and records no iteration. The flow pipeline implements
  /// cancellation and time budgets through it.
  std::function<bool()> stop;
};

/// The search phase of one iteration: each rule's first
/// `params.max_matches_per_rule` matches in candidate-class order, against
/// the clean e-graph `egraph`. Runs one rule per task on `pool` when it is
/// given; the lists and step counts are the same either way. Adds each
/// rule's search steps to `steps` when given (sized like `rules`).
std::vector<RuleMatches> search_rules(const EGraph& egraph,
                                      const std::vector<Rewrite>& rules,
                                      const RunnerParams& params,
                                      ThreadPool* pool = nullptr,
                                      std::vector<std::size_t>* steps = nullptr);

/// Run equality saturation over `egraph` with the given rules and limits,
/// reporting progress through `hooks`.
RunnerReport run_rewriting(EGraph& egraph, const std::vector<Rewrite>& rules,
                           const RunnerParams& params,
                           const RunnerHooks& hooks = {});

}  // namespace emorphic
