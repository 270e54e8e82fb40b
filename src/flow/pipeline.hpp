#pragma once
// Composable flow pipeline — the public seam every E-morphic flow hangs off.
//
// The paper's Fig. 5 flow (tech-independent optimization -> direct DAG-to-DAG
// conversion -> equality saturation -> parallel SA extraction -> mapping ->
// CEC) is expressed as a sequence of `Stage` objects threaded through a
// shared `FlowContext`. A `Pipeline` is an ordered list of stages; running it
// produces a `FlowResult` with per-stage telemetry. A `FlowObserver` receives
// begin/end events for the flow and each stage, plus fine-grained progress
// from the rewriting runner (per iteration) and the SA extractor (per move).
//
// Stages are stateless and re-entrant: all mutable state lives in the
// FlowContext, so one Pipeline instance can drive many circuits concurrently
// (see flow/batch.hpp). The built-in stages are available by name
// (`make_stage`), the prebuilt flows are named recipes (`Pipeline::recipe`),
// and custom stages join a pipeline as instances (`Pipeline::add`).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cec/cec.hpp"
#include "egraph/runner.hpp"
#include "extract/sa_extractor.hpp"
#include "flow/choice_export.hpp"
#include "flow/conversion.hpp"
#include "mapper/tech_mapper.hpp"
#include "opt/fraig.hpp"
#include "opt/partition.hpp"
#include "opt/resyn.hpp"
#include "opt/sop_balance.hpp"
#include "util/timer.hpp"

namespace emorphic {

/// Quality-prioritized cost model (Sec. III-C.2): a fast, rough technology
/// mapping; the mapped delay is the SA cost, area breaks ties.
///
/// The matcher (NPN canonization tables + match cache) is built once and
/// shared — it is thread-safe, so one evaluator instance serves all SA
/// chains concurrently; each calling thread maps through its own reusable
/// workspace, so steady-state evaluations perform no mapper allocation.
class MapQorEvaluator : public QorEvaluator {
 public:
  explicit MapQorEvaluator(const CellLibrary& library, double area_weight = 0.5)
      : MapQorEvaluator(std::make_shared<const Matcher>(library),
                        area_weight) {}

  /// Share a prebuilt matcher (e.g. FlowContext::shared_matcher(), or
  /// run_batch's per-batch instance) instead of canonizing the library anew.
  explicit MapQorEvaluator(std::shared_ptr<const Matcher> matcher,
                           double area_weight = 0.5)
      : QorEvaluator(area_weight), matcher_(std::move(matcher)) {
    // Reduced effort relative to the final map: fewer priority cuts and no
    // area recovery, trading accuracy for evaluation speed.
    params_.num_cuts = 4;
    params_.area_recovery = false;
  }

  Qor evaluate(const Aig& candidate) const override {
    thread_local MapperWorkspace workspace;
    MappedQor q = map_qor(candidate, *matcher_, params_, &workspace);
    return Qor{q.area, q.delay};
  }

  const CellLibrary& library() const { return matcher_->library(); }

 private:
  std::shared_ptr<const Matcher> matcher_;
  MapperParams params_;
};

/// Shared configuration for one flow run; defaults mirror the paper's
/// Sec. IV-A settings at laptop scale.
struct FlowParams {
  /// Standard-cell library used by mapping stages and the default SA
  /// cost model.
  const CellLibrary* library = &CellLibrary::asap7_like();
  unsigned rounds = 4;            // total optimization rounds
  /// Area term in the scalar flow cost (delay + weight*area): delay stays
  /// the primary objective, area breaks near-ties (see QorEvaluator::cost).
  double area_weight = 0.5;
  SopBalanceParams sop_balance;   // K=6, C=8
  MapperParams mapping;           // final map effort
  /// E-graph rewriting configuration (iteration/node caps, rule indexing,
  /// match_threads for the parallel match phase).
  RunnerParams rewrite;
  SaParams sa;                    // SA extraction parameters
  bool verify = true;             // cec the result against the input
  CecParams cec_params;
  /// SAT-sweeping configuration for the "fraig" stage (sim rounds, conflict
  /// limit, max class size — see opt/fraig.hpp).
  FraigParams fraig;
  /// Run a "fraig" sweep inside every window of the "partition" stage.
  bool fraig_post = false;
  /// Choice export configuration for the "choicemap" and "choicemap-lut"
  /// stages: ring cap and the SAT budget every exported ring member is
  /// verified under (see flow/choice_export.hpp).
  ChoiceExportParams choice_export;
  /// LUT input cap K for the "lutmap" and "choicemap-lut" stages; must lie
  /// in [2, kMaxCutSize] — the stage (via map_to_luts) throws
  /// std::invalid_argument outside that range, and the service rejects it
  /// as BAD_PARAMS at submit time.
  unsigned lut_size = 6;
  /// Paranoia mode: re-validate every live structure (working AIG, e-graph,
  /// mapped netlist) with the deep validators of check/validators.hpp at
  /// every stage boundary — at *runtime*, in any build, unlike the
  /// EMORPHIC_CHECKS-gated internal call sites. A violation aborts the flow
  /// with a check::CheckError naming the stage and the offending
  /// node/class. Costs one full structure walk per stage; off by default.
  bool paranoia = false;
  /// Makes `Pipeline::emorphic(params)` return the "partition" recipe, the
  /// one flag alias of a recipe name left (perfbench's scale_partition
  /// workload selects its flow through it). Nothing else reads it.
  bool partition = false;
  /// Maximum AND nodes per window for the partition stage.
  std::uint32_t window_size = 1000;
  /// Checkpoint file for crash-safe resume; empty disables checkpointing.
  /// The partition stage keeps per-chunk window results in it ("EMPC");
  /// the Rewrite stage snapshots the e-graph after every saturation
  /// iteration ("EMCK") and resumes from it bit-identically. CLI/test
  /// surface only — the synthesis service deliberately does not expose it
  /// (clients must not name server-side paths).
  std::string checkpoint_path;
};

/// Quality-of-result summary of a finished flow.
struct FlowQor {
  double area = 0.0;       // µm²
  double delay = 0.0;      // ps
  std::uint32_t lev = 0;   // AIG levels before the final mapping
  double seconds = 0.0;    // optimization runtime (verification excluded)
};

/// Wall-clock record of one executed stage.
struct StageTelemetry {
  std::string name;        // Stage::name() of the stage that ran
  std::size_t index = 0;   // position in the pipeline
  double seconds = 0.0;
};

/// Per-stage wall-clock telemetry of one pipeline run.
struct FlowTelemetry {
  std::vector<StageTelemetry> stages;  // in execution order
  double total_seconds = 0.0;          // whole pipeline, including observers

  /// Total seconds of every executed stage with this name (a stage class can
  /// appear several times, e.g. EgraphConversion forward + backward).
  double seconds_for(std::string_view name) const {
    double sum = 0.0;
    for (const StageTelemetry& s : stages) {
      if (s.name == name) sum += s.seconds;
    }
    return sum;
  }
};

/// Which external stop signal a flow run observed (pipeline.hpp keeps the
/// name distinct from the saturation runner's StopReason). The service layer
/// reports this verbatim so clients can tell a client-driven cancellation
/// from an expired deadline.
enum class FlowStopReason {
  kNone = 0,    // no stop signal observed
  kCancelled,   // the external cancel flag was set
  kDeadline,    // the wall-clock time budget expired
};

const char* to_string(FlowStopReason reason);

/// Everything a finished pipeline produced. Fields that a pipeline's stages
/// never touch keep their defaults (e.g. `sa` for the baseline pipeline).
struct FlowResult {
  FlowQor qor;
  Aig final_aig;
  /// The mapped cover: a cell netlist, or a LUT netlist (no library) when
  /// a "lutmap" stage ran last.
  std::optional<MappedNetlist> netlist;
  FlowTelemetry telemetry;
  RunnerReport rewrite_report;
  SaResult sa;
  /// Counters of the last executed "fraig" stage (all-zero otherwise).
  FraigStats fraig_stats;
  /// Counters of the last executed "choicemap" stage (all-zero otherwise).
  ChoiceExportStats choice_stats;
  /// Counters of the last executed "partition" stage (all-zero otherwise).
  PartitionStats partition_stats;
  std::size_t egraph_classes = 0;
  std::size_t egraph_enodes = 0;
  std::size_t initial_enodes = 0;
  CecStatus verify_status = CecStatus::kUndecided;
  /// True when stages were skipped (cancellation flag or time budget fired
  /// between stages). See `stop_reason` for which signal it was.
  bool cancelled = false;
  /// Which stop signal fired during the run, recorded at the first poll
  /// that observed it — including polls *inside* the final stage, so a run
  /// whose budget expired mid-TechMap reports kDeadline even though
  /// `cancelled` stays false (no stage was skipped, but the result may have
  /// been computed under a fired budget and should be treated accordingly).
  FlowStopReason stop_reason = FlowStopReason::kNone;
};

class Stage;
struct FlowContext;
class QorMemo;  // extract/qor_memo.hpp

/// Callback interface for flow progress. All methods have empty default
/// bodies — override what you need. When a pipeline runs inside run_batch,
/// one observer instance sees events from several circuits concurrently
/// (disambiguate with FlowContext::batch_index) and must be thread-safe.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;

  virtual void on_flow_begin(const FlowContext& /*ctx*/) {}
  virtual void on_stage_begin(const Stage& /*stage*/,
                              const FlowContext& /*ctx*/) {}
  virtual void on_stage_end(const Stage& /*stage*/,
                            const StageTelemetry& /*telemetry*/,
                            const FlowContext& /*ctx*/) {}
  /// One equality-saturation iteration finished (Rewrite stage).
  virtual void on_rewrite_iteration(const IterationStats& /*stats*/,
                                    const FlowContext& /*ctx*/) {}
  /// One annealing move was evaluated (SaExtract stage). Serialized by an
  /// internal mutex, but chains interleave nondeterministically.
  virtual void on_sa_move(const SaTracePoint& /*point*/,
                          const FlowContext& /*ctx*/) {}
  virtual void on_flow_end(const FlowContext& /*ctx*/) {}
};

/// Shared state threaded through the stages of one pipeline run. Configure
/// the members under "configuration", hand it to Pipeline::run(ctx), and
/// read the results back (or use the FlowResult returned by run). The
/// results are the FlowResult base: stages write its fields directly, and
/// `netlist` doubles as the working cover. Two base fields are filled only
/// by take_result, so mid-run (in a stage or an observer) they read their
/// reset values: `final_aig` stays empty — read `current`, the working
/// AIG — and `stop_reason` stays kNone — read `stop_signal`.
struct FlowContext : FlowResult {
  // --- configuration -------------------------------------------------------
  FlowParams params;
  /// Per-run seed override for stochastic stages; 0 keeps params.sa.seed.
  /// run_batch derives a deterministic nonzero seed per circuit from it.
  std::uint64_t seed = 0;
  /// Cost-model override for SaExtract; null uses MapQorEvaluator over
  /// params.library (the paper's quality-prioritized mode).
  const QorEvaluator* evaluator = nullptr;
  FlowObserver* observer = nullptr;
  /// External cancellation flag, polled between stages, between rewrite
  /// iterations, and between SA moves.
  std::atomic<bool>* cancel = nullptr;
  /// Optional shared QoR memo for the SA evaluator (extract/qor_memo.hpp),
  /// keyed by structural signature: repeated structures across runs skip
  /// technology mapping. Install one per cell library and per evaluator —
  /// the memo caches raw evaluator output, so mixing evaluators (or
  /// libraries) in one memo would serve wrong answers. `WarmCache::prepare`
  /// wires this for the batch driver and the synthesis service.
  QorMemo* qor_memo = nullptr;
  /// Wall-clock budget for the whole run; 0 = unlimited.
  double time_budget_s = 0.0;
  /// Index of this circuit within a run_batch call (0 otherwise).
  std::size_t batch_index = 0;
  /// Shared NPN matcher over params.library, used by every mapping stage
  /// and the default SA evaluator. Lazily built by shared_matcher();
  /// run_batch pre-seeds it so all workers share one instance (the matcher
  /// is thread-safe). Survives Pipeline::run's working-state reset — it is
  /// configuration-derived, and rebuilt only when the library changes.
  std::shared_ptr<const Matcher> matcher;
  /// Reusable mapper scratch for this context's cell and LUT mapping
  /// stages (stages run on one thread; SA chains use their own
  /// thread-local workspaces).
  MapperWorkspace mapper_workspace;

  /// The shared matcher for params.library, building (or replacing) it if
  /// needed.
  const std::shared_ptr<const Matcher>& shared_matcher() {
    if (matcher == nullptr || &matcher->library() != params.library) {
      matcher = std::make_shared<const Matcher>(*params.library);
    }
    return matcher;
  }

  // --- working state (stage inputs/outputs) --------------------------------
  // Contract for every stage, custom ones included: a stage that rewrites
  // `current` also resets or replaces `netlist`. A cell netlist (not
  // is_lut()) is therefore always a cover of `current`, which is how
  // TechMap knows when it can skip the remap. SaExtract ran exactly when
  // `sa.best` has class slots (the backward EgraphConversion falls back to
  // greedy extraction otherwise).
  Aig input;    // original circuit, kept pristine for verification
  Aig current;  // the network being transformed
  std::optional<CircuitEGraph> egraph;

  /// First stop signal observed by any should_stop() poll this run —
  /// including polls inside stages (SA moves, rewrite iterations), so a
  /// deadline that fires during the final stage is still reported. Atomic:
  /// SA chains poll concurrently; the first recorded reason wins.
  mutable std::atomic<FlowStopReason> stop_signal{FlowStopReason::kNone};

  /// Restarted by Pipeline::run; the reference point for time_budget_s.
  Timer stopwatch;

  bool should_stop() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      note_stop(FlowStopReason::kCancelled);
      return true;
    }
    if (time_budget_s > 0.0 && stopwatch.seconds() > time_budget_s) {
      note_stop(FlowStopReason::kDeadline);
      return true;
    }
    return false;
  }

  /// Record the first observed stop signal (later signals are ignored:
  /// once one fired, every subsequent poll reports a stop anyway).
  void note_stop(FlowStopReason reason) const {
    FlowStopReason expected = FlowStopReason::kNone;
    stop_signal.compare_exchange_strong(expected, reason,
                                        std::memory_order_relaxed);
  }

  /// Move the results out, with `current` as the final AIG and the stop
  /// signal as the stop reason. Pipeline::run re-initializes all working
  /// state from the configuration members, so a context can be reused for
  /// further runs after this.
  FlowResult take_result();
};

/// One step of a flow. Implementations must be stateless/re-entrant: run()
/// is const and may execute concurrently on different contexts.
class Stage {
 public:
  virtual ~Stage() = default;
  /// Stable name: the make_stage key and the telemetry key.
  virtual const char* name() const = 0;
  /// Execute the stage: read/write ctx's working state and result fields.
  virtual void run(FlowContext& ctx) const = 0;
};

using StagePtr = std::unique_ptr<Stage>;

// --- built-in stages (names match the class stem) --------------------------

/// Gated ABC-style "(st; if -g)(st; dch; map)" rounds: a candidate round is
/// adopted only when its mapped cost improves on the incumbent. Leaves the
/// best network in ctx.current and its mapping in ctx.netlist.
class ResynRoundsStage : public Stage {
 public:
  enum class Rounds {
    kAll,         // run params.rounds rounds (the baseline flow)
    kAllButLast,  // leave the last round to a resynth-gated TechMap
  };
  explicit ResynRoundsStage(Rounds policy = Rounds::kAll) : policy_(policy) {}
  const char* name() const override { return "ResynRounds"; }
  void run(FlowContext& ctx) const override;

 private:
  Rounds policy_;
};

/// Direction-aware DAG-to-DAG conversion (Sec. III-D.1): forward
/// (ctx.current -> ctx.egraph) when no e-graph exists yet, backward
/// (ctx.egraph -> ctx.current) afterwards, using the SA winner when
/// SaExtract ran and greedy depth-cost extraction otherwise.
class EgraphConversionStage : public Stage {
 public:
  const char* name() const override { return "EgraphConversion"; }
  void run(FlowContext& ctx) const override;
};

/// A few equality-saturation iterations over ctx.egraph. An empty rule set
/// means the built-in make_logic_rules().
class RewriteStage : public Stage {
 public:
  RewriteStage() = default;
  explicit RewriteStage(std::vector<Rewrite> rules) : rules_(std::move(rules)) {}
  const char* name() const override { return "Rewrite"; }
  void run(FlowContext& ctx) const override;

 private:
  std::vector<Rewrite> rules_;
};

/// Parallel simulated-annealing extraction under ctx.evaluator (or the
/// default MapQorEvaluator). Stores the winner in ctx.sa; the circuit is
/// materialized by the following EgraphConversion (backward) stage.
class SaExtractStage : public Stage {
 public:
  const char* name() const override { return "SaExtract"; }
  void run(FlowContext& ctx) const override;
};

/// Final technology mapping. Reuses ctx.netlist when it is still current
/// (the gated rounds already mapped the winner); with `resynth_gate` it also
/// tries one dch-substitute resynthesis of ctx.current and keeps whichever
/// maps better (the E-morphic flow's final "(st; dch; map)" round).
class TechMapStage : public Stage {
 public:
  explicit TechMapStage(bool resynth_gate = false)
      : resynth_gate_(resynth_gate) {}
  const char* name() const override { return "TechMap"; }
  void run(FlowContext& ctx) const override;

 private:
  bool resynth_gate_;
};

/// SAT-backed combinational equivalence check of ctx.current against
/// ctx.input (no-op unless params.verify). Its runtime is excluded from
/// FlowQor::seconds.
class CecStage : public Stage {
 public:
  const char* name() const override { return "Cec"; }
  void run(FlowContext& ctx) const override;
};

/// SAT sweeping of ctx.current (see opt/fraig.hpp): merges
/// proven-equivalent nodes, invalidating any mapped netlist. Configured by
/// FlowParams::fraig; stats land in FlowResult::fraig_stats. Named
/// ABC-style in lowercase: "fraig".
class FraigStage : public Stage {
 public:
  const char* name() const override { return "fraig"; }
  void run(FlowContext& ctx) const override;
};

/// Choice-aware technology mapping of ctx.egraph (Sec. I, insight 1 pushed
/// into the mapper): exports the e-graph as a choice-annotated AIG under
/// the SA winner (greedy depth extraction when SaExtract did not run),
/// with a SAT-verified ring of alternative structures per class, and maps
/// across all variants (flow/choice_export.hpp). The cross-variant cover is
/// Pareto-gated against the plain mapping of the committed extraction
/// (map_with_choices_gated), so the stage is monotone: choices can only
/// improve the cover. Subsumes the backward EgraphConversion *and* the
/// final mapping: ctx.current becomes the plain extraction, ctx.netlist the
/// gated choice-aware cover of it. The cell backend is "choicemap"; the
/// k-LUT backend is "choicemap-lut" (FlowParams::lut_size; QoR is LUT count
/// and LUT depth, as for "lutmap"). Configured by FlowParams::choice_export;
/// stats land in FlowResult::choice_stats.
class ChoiceMapStage : public Stage {
 public:
  enum class Backend { kCells, kLuts };
  explicit ChoiceMapStage(Backend backend = Backend::kCells)
      : backend_(backend) {}
  const char* name() const override {
    return backend_ == Backend::kCells ? "choicemap" : "choicemap-lut";
  }
  void run(FlowContext& ctx) const override;

 private:
  Backend backend_;
};

/// k-LUT technology mapping of ctx.current (mapper/lut_mapper.hpp): the
/// FPGA-flavored final stage. The LUT cover replaces ctx.netlist (a LUT
/// netlist, so a later TechMap remaps onto cells) and the flow QoR
/// becomes LUT count (area) and LUT depth (delay). Configured by
/// FlowParams::lut_size. Every cover is CEC-proven against the stage input
/// by the stage-equivalence gate
/// (tests/integration/test_stage_equivalence.cpp).
class LutMapStage : public Stage {
 public:
  const char* name() const override { return "lutmap"; }
  void run(FlowContext& ctx) const override;
};

/// Windowed saturation of ctx.current: partition_optimize
/// (flow/partition_flow.hpp) under this context, so it is seeded by
/// ctx.seed (or sa.seed when that is 0) and polls ctx.should_stop() between
/// chunks. Stats land in FlowResult::partition_stats. When the cancel flag
/// or the time budget stops it, ctx.current is left untouched (progress
/// persists in the checkpoint file).
class PartitionStage : public Stage {
 public:
  const char* name() const override { return "partition"; }
  void run(FlowContext& ctx) const override;
};

// --- stages and recipes by name ---------------------------------------------

/// A fresh default-configured built-in stage by its name(); throws
/// std::invalid_argument (listing the known names) when `name` is unknown.
StagePtr make_stage(const std::string& name);

/// The name of every built-in stage, in table order.
std::vector<std::string> builtin_stage_names();

/// The name of every flow recipe (see Pipeline::recipe), in table order.
std::vector<std::string> recipe_names();

// --- the pipeline -----------------------------------------------------------

/// An ordered list of stages; cheap to copy, safe to run concurrently on
/// different contexts (stages are stateless by contract).
class Pipeline {
 public:
  Pipeline() = default;

  /// Append a stage instance; returns *this for chaining.
  Pipeline& add(StagePtr stage);
  /// Append a built-in stage by name (see make_stage).
  Pipeline& add(const std::string& stage_name);

  /// Number of stages.
  std::size_t size() const { return stages_.size(); }
  /// The stages, in execution order.
  const std::vector<std::shared_ptr<const Stage>>& stages() const {
    return stages_;
  }
  /// Stage::name() of every stage, in execution order.
  std::vector<std::string> stage_names() const;

  /// Run every stage in order on a caller-prepared context (full control:
  /// seed, evaluator, observer, cancellation, time budget). Stops early when
  /// ctx.should_stop() fires between stages.
  FlowResult run(FlowContext& ctx) const;

  /// Convenience wrapper over a fresh context.
  FlowResult run(const Aig& input, const FlowParams& params = {},
                 FlowObserver* observer = nullptr) const;

  /// A named flow recipe: a fixed stage list, in the style of ABC's named
  /// scripts (docs/stages.md lists them). "emorphic" is the paper's Fig. 5
  /// flow: ResynRounds (all but the last round); EgraphConversion (fwd);
  /// Rewrite; SaExtract; EgraphConversion (bwd); TechMap (resynth-gated
  /// final round); Cec. "baseline" is the conventional delay-oriented flow
  /// of [22]: ResynRounds; TechMap. The "-choice" and "-lut" variants swap
  /// the tail for choice-aware and k-LUT mapping, and "partition" is
  /// windowed saturation: partition; Cec. Throws std::invalid_argument
  /// (listing recipe_names()) when `name` is unknown.
  static Pipeline recipe(std::string_view name);

  /// The "baseline" recipe.
  static Pipeline baseline(const FlowParams& params = {});

  /// The "emorphic" recipe, or "partition" when `params.partition` is set.
  static Pipeline emorphic(const FlowParams& params = {});

 private:
  // Shared (not unique) so a Pipeline is cheap to copy and one instance can
  // serve concurrent run() calls; stages are stateless by contract.
  std::vector<std::shared_ptr<const Stage>> stages_;
};

}  // namespace emorphic
