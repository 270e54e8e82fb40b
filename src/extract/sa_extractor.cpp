#include "extract/sa_extractor.hpp"

#include <algorithm>
#include <cmath>

#include "aig/signature.hpp"
#include "extract/qor_memo.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace emorphic {

namespace {

/// Evaluator calls and memo traffic of one chain (or the final polish).
struct QorCounts {
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct ChainResult {
  Extraction solution;
  Qor qor;
  double cost = kInfCost;
  QorCounts counts;
  ExtractStats stats;
  std::vector<SaTracePoint> trace;
};

/// Score one candidate, through the shared memo when there is one. Returns
/// whether the memo answered (a hit) in *hit.
Qor score(const QorEvaluator& evaluator, QorMemo* memo, const Aig& aig,
          QorCounts& counts, bool* hit) {
  *hit = false;
  if (memo == nullptr) {
    ++counts.evaluations;
    return evaluator.evaluate(aig);
  }
  Qor qor = memo->get_or_evaluate(
      structural_signature(aig), [&] { return evaluator.evaluate(aig); }, hit);
  if (*hit) {
    ++counts.cache_hits;
  } else {
    ++counts.evaluations;
    ++counts.cache_misses;
  }
  return qor;
}

/// The paper's cooling schedule (Sec. IV-A). `n` is 1-based; `delta` is the
/// |new_cost - old_cost| observed in the last move of the iteration: the
/// divisor splits into n * 10000 for n = 2, 3 and plain n for the final
/// iteration.
double next_temperature(double t, unsigned n, double delta) {
  if (n <= 1) return t;
  // Degenerate-schedule guard: with no observed move delta — e.g.
  // moves_per_iteration == 0, or the last move left the cost unchanged —
  // there is no cooling signal; keep the temperature instead of collapsing
  // it to the 1e-6 floor.
  if (delta <= 0.0) return t;
  double scaled = delta / (n < 4 ? (static_cast<double>(n) * 10000.0)
                                 : static_cast<double>(n));
  double next = t * scaled;
  // Keep the temperature sane when |delta| is enormous or denormal.
  if (!(next > 0.0)) next = 1e-6;
  return std::min(next, t);
}

ChainResult run_chain(unsigned thread_index, const ExtractView& view,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names,
                      const QorEvaluator& evaluator, const SaParams& params,
                      const SaHooks& hooks, QorMemo* memo,
                      ExtractScratch& scratch) {
  ChainResult result;
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + thread_index + 1);

  // Initial solution (Fig. 4): greedy depth / greedy size / random,
  // round-robin across threads so chains start from diverse corners. The
  // size-seeded chain also explores with the size proxy cost, the others
  // with depth: depth chases delay structures, size sharing-friendly ones
  // — the blended QoR cost arbitrates between them.
  Extraction current;
  CostModel proxy{CostKind::kDepth};
  switch (thread_index % 3) {
    case 0:
      current = greedy_extract(view, CostModel{CostKind::kDepth}, scratch,
                               &result.stats, params.prune);
      break;
    case 1:
      proxy = CostModel{CostKind::kSize};
      current = dag_refine(view,
                           greedy_extract(view, CostModel{CostKind::kSize},
                                          scratch, &result.stats,
                                          params.prune),
                           proxy, roots, scratch);
      break;
    default:
      current = random_extract(view, rng);
      break;
  }

  bool last_was_hit = false;
  auto evaluate = [&](const Extraction& sol) {
    Aig aig = extraction_to_aig(view, sol, roots, pi_names, scratch).cleanup();
    return score(evaluator, memo, aig, result.counts, &last_was_hit);
  };

  Qor current_qor = evaluate(current);
  double current_cost = evaluator.cost(current_qor);
  result.solution = current;
  result.qor = current_qor;
  result.cost = current_cost;

  double temperature = params.initial_temperature;
  double last_delta = 0.0;

  for (unsigned iter = 1; iter <= params.iterations; ++iter) {
    if (iter > 1) temperature = next_temperature(temperature, iter, last_delta);
    for (unsigned move = 0; move < params.moves_per_iteration; ++move) {
      if (hooks.stop && hooks.stop()) return result;
      BottomUpOptions options;
      options.cost = &proxy;
      options.p_random = params.p_random;
      options.rng = &rng;
      options.prune = params.prune;
      options.warm_start = &current;
      options.stats = &result.stats;
      Extraction candidate = bottom_up_extract(view, options, scratch);
      if (proxy.kind == CostKind::kSize) {
        // Size-oriented chains fight duplication with marginal-cost
        // refinement (tree costs overcount shared logic).
        candidate = dag_refine(view, std::move(candidate), proxy, roots,
                               scratch, 1);
      }

      Qor qor = evaluate(candidate);
      double cost = evaluator.cost(qor);
      double delta = cost - current_cost;
      last_delta = std::abs(delta);

      bool accept = delta < 0.0;
      if (!accept && temperature > 0.0) {
        // Metropolis rule: occasional uphill moves escape local optima.
        accept = rng.next_double() < std::exp(-delta / temperature);
      }

      result.trace.push_back(SaTracePoint{thread_index, iter, move,
                                          temperature, cost, current_cost,
                                          accept, last_was_hit});
      if (accept) {
        current = std::move(candidate);
        current_qor = qor;
        current_cost = cost;
        if (cost < result.cost ||
            (cost == result.cost && qor.area < result.qor.area)) {
          result.solution = current;
          result.qor = qor;
          result.cost = cost;
        }
      }
    }
  }
  return result;
}

}  // namespace

SaResult sa_extract(const EGraph& egraph,
                    const std::vector<SerializedRoot>& roots,
                    const std::vector<std::string>& pi_names,
                    const QorEvaluator& evaluator, const SaParams& params,
                    const SaHooks& hooks) {
  Timer timer;
  unsigned num_threads = std::max(1u, params.num_threads);

  // An external memo (hooks.qor_memo) survives this run — that is the
  // cache-warmth seam of the synthesis service.
  QorMemo local_memo;
  QorMemo* memo_ptr = nullptr;
  if (params.memoize_qor) {
    memo_ptr = hooks.qor_memo != nullptr ? hooks.qor_memo : &local_memo;
  }

  // One compiled view serves every chain (it is read-only); each chain
  // keeps its own scratch across all of its moves.
  const ExtractView view(egraph);
  std::vector<ExtractScratch> scratch(num_threads);
  std::vector<ChainResult> chains(num_threads);
  {
    // lint:allow(thread-in-library) SaParams::num_threads, one SA chain each
    ThreadPool pool(num_threads);
    pool.parallel_for(num_threads, [&](std::size_t t) {
      chains[t] = run_chain(static_cast<unsigned>(t), view, roots, pi_names,
                            evaluator, params, hooks, memo_ptr, scratch[t]);
    });
  }

  SaResult result;
  result.best_cost = kInfCost;
  QorCounts counts;
  for (auto& chain : chains) {
    counts.evaluations += chain.counts.evaluations;
    counts.cache_hits += chain.counts.cache_hits;
    counts.cache_misses += chain.counts.cache_misses;
    result.extract_stats.enodes_visited += chain.stats.enodes_visited;
    result.extract_stats.enodes_skipped += chain.stats.enodes_skipped;
    result.extract_stats.passes += chain.stats.passes;
    for (auto& point : chain.trace) result.trace.push_back(point);
    if (chain.cost < result.best_cost ||
        (chain.cost == result.best_cost &&
         chain.qor.area < result.best_qor.area)) {
      result.best = chain.solution;
      result.best_qor = chain.qor;
      result.best_cost = chain.cost;
    }
  }
  // Final DAG-aware polish of the winner: strictly-validated, adopted only
  // when the evaluator agrees it is no worse. Its Qor goes through the memo
  // like every move's, so a shared memo learns it too.
  Extraction polished = dag_refine(view, result.best,
                                   CostModel{CostKind::kSize}, roots,
                                   scratch[0]);
  Aig polished_aig =
      extraction_to_aig(view, polished, roots, pi_names, scratch[0]).cleanup();
  bool hit = false;
  Qor polished_qor = score(evaluator, memo_ptr, polished_aig, counts, &hit);
  double polished_cost = evaluator.cost(polished_qor);
  if (polished_cost < result.best_cost) {
    result.best = std::move(polished);
    result.best_qor = polished_qor;
    result.best_cost = polished_cost;
  }
  result.evaluations = counts.evaluations;
  result.qor_cache_hits = counts.cache_hits;
  result.qor_cache_misses = counts.cache_misses;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace emorphic
