#pragma once
// Simulated-annealing e-graph extraction (Sec. III-B, Fig. 4):
//
//   * several annealing chains run in parallel threads, each seeded with a
//     bottom-up initial solution (greedy depth / greedy size / random);
//   * each move generates a neighboring solution with Algorithm 1's
//     randomized bottom-up pass, evaluates its QoR through a pluggable cost
//     model (exact mapper or ML estimate, Sec. III-C), and accepts or
//     rejects by the Metropolis rule;
//   * the temperature follows the paper's schedule (Sec. IV-A): T1 = 2000,
//     then Tn = Tn-1 * |new_cost - old_cost| / (n * 10000) for n = 2, 3 and
//     Tn = Tn-1 * |new_cost - old_cost| / n for the final iteration;
//   * the best mapped solution across all chains wins.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "extract/extractor.hpp"

namespace emorphic {

/// Post-mapping quality of result.
struct Qor {
  double area = 0.0;   // µm²
  double delay = 0.0;  // ps
};

/// Pluggable cost model (Sec. III-C). Implementations must be thread-safe:
/// several SA chains evaluate concurrently.
class QorEvaluator {
 public:
  explicit QorEvaluator(double area_weight = 0.5)
      : area_weight_(area_weight) {}
  virtual ~QorEvaluator() = default;

  /// Evaluate a candidate circuit (typically: quick technology mapping, or
  /// an ML prediction of the mapped delay).
  virtual Qor evaluate(const Aig& candidate) const = 0;

  /// Scalar cost SA minimizes. Delay is the primary metric (the paper
  /// optimizes post-mapping delay); a small area term keeps the delay-
  /// oriented search from drifting into area-bloated structures — this is
  /// how Table II reports area *savings* alongside the delay reduction.
  virtual double cost(const Qor& qor) const {
    return qor.delay + area_weight_ * qor.area;
  }

  double area_weight() const { return area_weight_; }

 private:
  double area_weight_;
};

struct SaParams {
  unsigned iterations = 4;          // paper: annealing exit after 4 iterations
  unsigned moves_per_iteration = 6; // neighbor evaluations per iteration
  double initial_temperature = 2000.0;  // paper: T1 = 2000
  double p_random = 0.15;           // Algorithm 1 random skip probability
  unsigned num_threads = 4;         // paper: 4 (quality) / 6 (ML) threads
  std::uint64_t seed = 1;
  bool prune = true;                // solution-space pruning (Fig. 6)
  /// Memoize evaluator results in a per-run cache keyed by the candidate's
  /// structural signature (aig/signature.hpp), shared across all chains:
  /// re-visited extractions — common near convergence — skip mapping
  /// entirely. Never changes the result (the cached Qor is the evaluator's
  /// own earlier answer); hit/miss counters land in SaResult.
  bool memoize_qor = true;
};

/// One point of the annealing trace (for the Fig. 4 bench / diagnostics).
struct SaTracePoint {
  /// Annealing chain (thread) index.
  unsigned thread = 0;
  /// Iteration of the schedule this move belongs to.
  unsigned iteration = 0;
  /// Move index within the iteration.
  unsigned move = 0;
  /// Temperature at evaluation time.
  double temperature = 0.0;
  /// Scalar cost of the evaluated neighbor.
  double candidate_cost = 0.0;
  /// Scalar cost of the incumbent at evaluation time.
  double current_cost = 0.0;
  /// Metropolis verdict for this move.
  bool accepted = false;
  /// The candidate's Qor came from the per-run memo, not the evaluator.
  bool cache_hit = false;
};

/// Everything a finished SA extraction reports.
struct SaResult {
  /// The best extraction found across all chains.
  Extraction best;
  /// Its evaluated quality of result.
  Qor best_qor;
  /// Its scalar cost (QorEvaluator::cost of best_qor).
  double best_cost = 0.0;
  /// QoR evaluator calls (memo misses).
  std::size_t evaluations = 0;
  /// Qor-memo telemetry (zero when SaParams::memoize_qor is off).
  std::size_t qor_cache_hits = 0;
  std::size_t qor_cache_misses = 0;
  /// Wall clock of the whole extraction.
  double seconds = 0.0;
  /// Neighbor-generation counters, summed over all chains and moves.
  ExtractStats extract_stats;
  /// Per-move trace (see SaTracePoint); chains interleave.
  std::vector<SaTracePoint> trace;
};

class QorMemo;  // extract/qor_memo.hpp

/// Run hooks for an extraction (all optional). The flow pipeline uses them
/// to implement cancellation / time budgets across the parallel chains.
struct SaHooks {
  /// Polled by every chain before each move; return true to stop all chains
  /// early. Must be thread-safe. The best solution found so far still wins.
  std::function<bool()> stop;
  /// Optional external QoR memo (extract/qor_memo.hpp). When set (and
  /// SaParams::memoize_qor is on), chains consult and extend this shared
  /// memo instead of a fresh per-run one, so repeated structures across
  /// runs skip mapping. Results are unchanged either way: a cached Qor is
  /// the evaluator's own deterministic answer. The memo must belong to the
  /// same evaluator/library configuration as this run (see qor_memo.hpp).
  QorMemo* qor_memo = nullptr;
};

/// Run parallel simulated-annealing extraction over a (rewritten) e-graph,
/// polling and reporting through `hooks`.
SaResult sa_extract(const EGraph& egraph,
                    const std::vector<SerializedRoot>& roots,
                    const std::vector<std::string>& pi_names,
                    const QorEvaluator& evaluator, const SaParams& params,
                    const SaHooks& hooks = {});

}  // namespace emorphic
