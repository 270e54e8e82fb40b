#include "flow/pipeline.hpp"

#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "aig/signature.hpp"
#include "check/check.hpp"
#include "check/validators.hpp"
#include "egraph/rules.hpp"
#include "egraph/snapshot.hpp"
#include "flow/partition_flow.hpp"

namespace emorphic {

namespace {

double flow_cost(const FlowParams& params, double delay, double area) {
  return delay + params.area_weight * area;
}

/// Whether SaExtract ran this run: its winner always has class slots.
bool sa_ran(const FlowContext& ctx) { return ctx.sa.best.size() > 0; }

/// One "(st; if -g)(st; dch; ...)" tech-independent round. Alternating the
/// pass order across rounds explores different structures, mirroring how
/// ABC's choice-based rounds see multiple networks.
Aig optimize_round(const Aig& aig, const FlowParams& params, unsigned round) {
  Aig cur = strash(aig);
  if (round % 2 == 0) {
    cur = sop_balance(strash(dch_substitute(cur)), params.sop_balance);
  } else {
    cur = dch_substitute(strash(sop_balance(cur, params.sop_balance)));
  }
  return cur;
}

}  // namespace

const char* to_string(FlowStopReason reason) {
  switch (reason) {
    case FlowStopReason::kNone:
      return "none";
    case FlowStopReason::kCancelled:
      return "cancelled";
    case FlowStopReason::kDeadline:
      return "deadline";
  }
  return "?";
}

FlowResult FlowContext::take_result() {
  final_aig = std::move(current);
  stop_reason = stop_signal.load(std::memory_order_relaxed);
  return std::move(static_cast<FlowResult&>(*this));
}

// --- ResynRounds ------------------------------------------------------------

void ResynRoundsStage::run(FlowContext& ctx) const {
  const FlowParams& params = ctx.params;
  unsigned rounds = params.rounds;
  if (policy_ == Rounds::kAllButLast && rounds > 0) rounds -= 1;

  // ABC's script tolerates per-round regressions because `dch` keeps the
  // previous structure alive as choices; without choices, gating plays that
  // role and keeps this a monotone, competitive delay flow.
  const Matcher& matcher = *ctx.shared_matcher();
  Aig best = strash(ctx.current);
  MappedNetlist best_netlist =
      map_to_cells(best, matcher, params.mapping, &ctx.mapper_workspace);
  double best_delay = best_netlist.delay();
  double best_area = best_netlist.area();

  Aig cur = best;
  for (unsigned round = 0; round < rounds; ++round) {
    if (ctx.should_stop()) break;
    cur = optimize_round(cur, params, round);
    MappedNetlist mapped =
        map_to_cells(cur, matcher, params.mapping, &ctx.mapper_workspace);
    double delay = mapped.delay();
    double area = mapped.area();
    if (flow_cost(params, delay, area) <
        flow_cost(params, best_delay, best_area)) {
      best = cur;
      best_netlist = std::move(mapped);
      best_delay = delay;
      best_area = area;
    }
  }

  ctx.current = std::move(best);
  ctx.netlist = std::move(best_netlist);
}

// --- EgraphConversion -------------------------------------------------------

void EgraphConversionStage::run(FlowContext& ctx) const {
  if (!ctx.egraph.has_value()) {
    ctx.egraph.emplace(aig_to_egraph(ctx.current));
    ctx.initial_enodes = ctx.egraph->egraph.num_enodes();
    return;
  }
  if (sa_ran(ctx)) {
    ctx.current = egraph_to_aig(*ctx.egraph, ctx.sa.best);
  } else {
    ctx.current = egraph_to_aig_greedy(*ctx.egraph, CostKind::kDepth);
  }
  ctx.netlist.reset();
}

// --- Rewrite ----------------------------------------------------------------

namespace {

// Mid-saturation checkpointing ("EMCK"): after every saturation iteration
// the Rewrite stage snapshots the (clean, just-rebuilt) e-graph to
// FlowParams::checkpoint_path. A later run with the same circuit and
// parameters restores the snapshot and runs only the remaining iterations;
// because the runner's iterations are deterministic functions of the
// e-graph state, the resumed trajectory is bit-identical to the
// uninterrupted one (tests/flow/test_checkpoint.cpp). The checkpoint
// envelope replaces the file atomically, so a kill mid-write leaves the
// previous complete checkpoint, never a torn one.

constexpr char kRewriteCkptMagic[4] = {'E', 'M', 'C', 'K'};
constexpr const char* kRewriteCkptFormat = "rewrite checkpoint";

/// Everything the saturation trajectory depends on: circuit, caps, seed
/// and rule set (by name). A checkpoint whose fingerprint disagrees was
/// taken under a different run and throws (restoring it would silently
/// splice two unrelated saturations).
std::uint64_t rewrite_ckpt_fingerprint(const FlowContext& ctx,
                                       const std::vector<Rewrite>& rules) {
  std::uint64_t h = structural_signature(ctx.current);
  h = fingerprint_fold(h, ctx.params.rewrite.max_iterations);
  h = fingerprint_fold(h, ctx.params.rewrite.max_enodes);
  h = fingerprint_fold(h, ctx.params.rewrite.max_matches_per_rule);
  h = fingerprint_fold(h, ctx.seed);
  h = fingerprint_fold(h, rules.size());
  for (const Rewrite& rule : rules) {
    h = fingerprint_fold(h, rule.name.size());
    for (unsigned char c : rule.name) h = fingerprint_fold(h, c);
  }
  return h;
}

/// Restore a checkpoint into `egraph`; returns iterations already done
/// (0 when no checkpoint file exists). Throws SnapshotError on any
/// mismatch or corruption.
std::uint64_t load_rewrite_ckpt(const std::string& path,
                                std::uint64_t fingerprint, EGraph& egraph) {
  std::optional<std::string> body =
      read_checkpoint(path, kRewriteCkptMagic, kRewriteCkptFormat, fingerprint);
  if (!body.has_value()) return 0;
  SnapshotReader r(*body);
  std::uint64_t iterations = r.varint("iterations done");
  std::uint64_t len = r.varint("snapshot length");
  std::string snapshot = r.bytes(len, "e-graph snapshot");
  r.expect_end(kRewriteCkptFormat);
  egraph = snapshot_to_egraph(snapshot);
  return iterations;
}

void save_rewrite_ckpt(const std::string& path, std::uint64_t fingerprint,
                       std::uint64_t iterations, const EGraph& egraph) {
  SnapshotWriter w;
  w.varint(iterations);
  std::string snapshot = egraph_to_snapshot(egraph);
  w.varint(snapshot.size());
  w.bytes(snapshot);
  replace_checkpoint(path, kRewriteCkptMagic, fingerprint, w.str());
}

}  // namespace

void RewriteStage::run(FlowContext& ctx) const {
  if (!ctx.egraph.has_value()) {
    throw std::runtime_error(
        "Rewrite stage needs an e-graph: add EgraphConversion first");
  }
  const std::vector<Rewrite>* rules = &rules_;
  if (rules->empty()) {
    static const std::vector<Rewrite> default_rules = make_logic_rules();
    rules = &default_rules;
  }

  // Saturation checkpointing is the whole-circuit mode's resume path; the
  // partitioned flow checkpoints at window granularity instead and owns
  // the file.
  const bool checkpointing =
      !ctx.params.checkpoint_path.empty() && !ctx.params.partition;
  RunnerParams rewrite = ctx.params.rewrite;
  std::uint64_t fingerprint = 0;
  std::uint64_t iterations_done = 0;
  if (checkpointing) {
    fingerprint = rewrite_ckpt_fingerprint(ctx, *rules);
    iterations_done = load_rewrite_ckpt(ctx.params.checkpoint_path,
                                        fingerprint, ctx.egraph->egraph);
    if (iterations_done >= rewrite.max_iterations) {
      rewrite.max_iterations = 0;  // everything already done: restore only
    } else {
      rewrite.max_iterations -= static_cast<unsigned>(iterations_done);
    }
  }

  RunnerHooks hooks;
  std::uint64_t iteration_counter = iterations_done;
  hooks.on_iteration = [&](const IterationStats& stats) {
    // Checkpoint before the cancel poll: a run killed at iteration k can
    // then resume from k, not k-1.
    if (checkpointing) {
      save_rewrite_ckpt(ctx.params.checkpoint_path, fingerprint,
                        ++iteration_counter, ctx.egraph->egraph);
    }
    if (ctx.observer != nullptr) ctx.observer->on_rewrite_iteration(stats, ctx);
    return !ctx.should_stop();
  };
  ctx.rewrite_report =
      run_rewriting(ctx.egraph->egraph, *rules, rewrite, hooks);
  ctx.egraph_classes = ctx.egraph->egraph.num_classes();
  ctx.egraph_enodes = ctx.egraph->egraph.num_enodes();
}

// --- SaExtract --------------------------------------------------------------

void SaExtractStage::run(FlowContext& ctx) const {
  if (!ctx.egraph.has_value()) {
    throw std::runtime_error(
        "SaExtract stage needs an e-graph: add EgraphConversion first");
  }
  const FlowParams& params = ctx.params;
  // The default evaluator shares the context's matcher: SA chains then hit
  // a warm match cache instead of re-canonizing the library per evaluation.
  // Built only when no custom evaluator overrides it.
  std::optional<MapQorEvaluator> default_evaluator;
  const QorEvaluator* evaluator = ctx.evaluator;
  if (evaluator == nullptr) {
    default_evaluator.emplace(ctx.shared_matcher(), params.area_weight);
    evaluator = &*default_evaluator;
  }

  SaParams sa_params = params.sa;
  if (ctx.seed != 0) sa_params.seed = ctx.seed;

  SaHooks hooks;
  hooks.stop = [&ctx] { return ctx.should_stop(); };
  // Cross-run QoR memo (WarmCache): only safe with the default evaluator —
  // the memo caches one evaluator's output per structural signature, and a
  // custom evaluator would poison / be poisoned by it.
  if (ctx.evaluator == nullptr) hooks.qor_memo = ctx.qor_memo;
  if (ctx.observer != nullptr) {
    hooks.on_move = [&ctx](const SaTracePoint& point) {
      ctx.observer->on_sa_move(point, ctx);
    };
  }
  ctx.sa = sa_extract(ctx.egraph->egraph, ctx.egraph->roots,
                      ctx.egraph->pi_names, *evaluator, sa_params, hooks);
}

// --- TechMap ----------------------------------------------------------------

void TechMapStage::run(FlowContext& ctx) const {
  const FlowParams& params = ctx.params;
  const Matcher& matcher = *ctx.shared_matcher();
  if (resynth_gate_) {
    // The E-morphic final round: SA already optimized the mapped delay of
    // ctx.current, so one more resynthesis is gated like the earlier rounds.
    Aig chosen_st = strash(ctx.current);
    MappedNetlist mapped =
        map_to_cells(chosen_st, matcher, params.mapping, &ctx.mapper_workspace);
    Aig final_aig = chosen_st;
    Aig resynth = dch_substitute(chosen_st);
    MappedNetlist remapped =
        map_to_cells(resynth, matcher, params.mapping, &ctx.mapper_workspace);
    if (flow_cost(params, remapped.delay(), remapped.area()) <
        flow_cost(params, mapped.delay(), mapped.area())) {
      mapped = std::move(remapped);
      final_aig = std::move(resynth);
    }
    ctx.current = std::move(final_aig);
    ctx.netlist = std::move(mapped);
  } else if (!ctx.netlist.has_value() || ctx.netlist->is_lut()) {
    // A cell netlist is a cover of ctx.current (the FlowContext contract).
    ctx.current = strash(ctx.current);
    ctx.netlist = map_to_cells(ctx.current, matcher, params.mapping,
                               &ctx.mapper_workspace);
  }
  ctx.qor.area = ctx.netlist->area();
  ctx.qor.delay = ctx.netlist->delay();
  ctx.qor.lev = ctx.current.num_levels();
}

// --- Cec --------------------------------------------------------------------

void CecStage::run(FlowContext& ctx) const {
  if (!ctx.params.verify) return;
  ctx.verify_status = cec(ctx.input, ctx.current, ctx.params.cec_params).status;
}

// --- fraig ------------------------------------------------------------------

void FraigStage::run(FlowContext& ctx) const {
  FraigParams params = ctx.params.fraig;
  // Fold the per-run seed in so batch circuits draw distinct simulation
  // patterns. run_batch derives ctx.seed deterministically per circuit, so
  // batch results stay reproducible; under a finite conflict budget the
  // seed can affect which borderline pairs prove in time (never soundness).
  if (ctx.seed != 0) params.seed ^= ctx.seed;
  ctx.current = fraig(ctx.current, params, &ctx.fraig_stats);
  ctx.netlist.reset();
}

// --- choicemap --------------------------------------------------------------

namespace {

/// The choice-export prologue of the choicemap and lutmap stages: the
/// committed extraction (the SA winner, else a greedy depth extraction)
/// defines the representative cone, and the rings carry everything else
/// the saturation discovered. ctx.current becomes the plain extraction
/// (what verification and downstream stages see); the returned annotation
/// is what the stage maps, Pareto-gated so the rings can only improve the
/// cover, never hurt it.
ChoiceAig export_choices(FlowContext& ctx) {
  Extraction solution =
      sa_ran(ctx)
          ? ctx.sa.best
          : greedy_extract(ctx.egraph->egraph, CostModel{CostKind::kDepth});
  ChoiceAig choice_aig = egraph_to_choice_aig(
      *ctx.egraph, solution, ctx.params.choice_export, &ctx.choice_stats);
  ctx.current = egraph_to_aig(*ctx.egraph, solution);
  return choice_aig;
}

}  // namespace

void ChoiceMapStage::run(FlowContext& ctx) const {
  if (!ctx.egraph.has_value()) {
    throw std::runtime_error(
        "choicemap stage needs an e-graph: add EgraphConversion first");
  }
  ChoiceAig choice_aig = export_choices(ctx);
  ChoiceMapOutcome outcome =
      map_with_choices_gated(choice_aig, *ctx.shared_matcher(),
                             ctx.params.mapping, &ctx.mapper_workspace);
  ctx.netlist = std::move(outcome.netlist);
  ctx.qor.area = ctx.netlist->area();
  ctx.qor.delay = ctx.netlist->delay();
  ctx.qor.lev = ctx.current.num_levels();
}

// --- lutmap -----------------------------------------------------------------

void LutMapStage::run(FlowContext& ctx) const {
  const FlowParams& params = ctx.params;
  LutMapperParams lut_params;
  lut_params.lut_size = params.lut_size;
  if (params.use_choicemap && ctx.egraph.has_value()) {
    // Choice-aware tail, mirroring ChoiceMapStage.
    ChoiceAig choice_aig = export_choices(ctx);
    ctx.netlist =
        map_with_choices_gated(choice_aig, lut_params, &ctx.mapper_workspace)
            .netlist;
  } else {
    ctx.current = strash(ctx.current);
    ctx.netlist = map_to_luts(ctx.current, lut_params, &ctx.mapper_workspace);
  }
  // A LUT cover is not a cell netlist: a later TechMap remaps instead of
  // reusing it.
  ctx.qor.area = ctx.netlist->area();    // LUT count
  ctx.qor.delay = ctx.netlist->delay();  // LUT levels
  ctx.qor.lev = ctx.current.num_levels();
}

// --- partition --------------------------------------------------------------

void PartitionStage::run(FlowContext& ctx) const {
  PartitionResult result = partition_optimize(ctx);
  ctx.partition_stats = result.stats;
  // Stopped between chunks (the poll recorded the stop signal): the
  // checkpoint holds the progress; leave the working network untouched so
  // downstream stages (and the caller) see a consistent circuit.
  if (!result.stats.completed) return;
  ctx.current = std::move(result.optimized);
  ctx.netlist.reset();
  ctx.qor.lev = ctx.current.num_levels();
}

// --- stage registry ---------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, StageFactory>& registry() {
  // Built-ins are seeded on first access so registration order cannot race
  // with static initialization in other translation units.
  static std::map<std::string, StageFactory> stages = [] {
    std::map<std::string, StageFactory> map;
    map["ResynRounds"] = [] { return StagePtr(new ResynRoundsStage()); };
    map["EgraphConversion"] = [] {
      return StagePtr(new EgraphConversionStage());
    };
    map["Rewrite"] = [] { return StagePtr(new RewriteStage()); };
    map["SaExtract"] = [] { return StagePtr(new SaExtractStage()); };
    map["TechMap"] = [] { return StagePtr(new TechMapStage()); };
    map["Cec"] = [] { return StagePtr(new CecStage()); };
    map["fraig"] = [] { return StagePtr(new FraigStage()); };
    map["choicemap"] = [] { return StagePtr(new ChoiceMapStage()); };
    map["lutmap"] = [] { return StagePtr(new LutMapStage()); };
    map["partition"] = [] { return StagePtr(new PartitionStage()); };
    return map;
  }();
  return stages;
}

}  // namespace

bool register_stage(const std::string& name, StageFactory factory) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return registry().insert_or_assign(name, std::move(factory)).second;
}

StagePtr make_stage(const std::string& name) {
  StageFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto it = registry().find(name);
    if (it != registry().end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& n : registered_stage_names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown stage '" + name +
                                "' (registered: " + known + ")");
  }
  return factory();
}

std::vector<std::string> registered_stage_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

// --- Pipeline ---------------------------------------------------------------

Pipeline& Pipeline::add(StagePtr stage) {
  stages_.emplace_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::add(const std::string& registered_name) {
  return add(make_stage(registered_name));
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  return names;
}

FlowResult Pipeline::run(FlowContext& ctx) const {
  // Re-initialize all working state from the configuration members: a
  // context can be reused for several runs (take_result only moves the
  // previous run's results out).
  ctx.stopwatch.restart();
  static_cast<FlowResult&>(ctx) = FlowResult();
  ctx.current = ctx.input;
  ctx.egraph.reset();
  ctx.stop_signal.store(FlowStopReason::kNone, std::memory_order_relaxed);
  if (ctx.observer != nullptr) ctx.observer->on_flow_begin(ctx);

  // Paranoia mode: deep-validate every live structure at each stage
  // boundary, in any build. A corrupt structure then fails at the stage
  // that produced it instead of passes later, with the violation named.
  auto validate = [&ctx](const std::string& boundary) {
    if (!ctx.params.paranoia) return;
    auto require = [&boundary](std::string why, const char* structure) {
      if (why.empty()) return;
      throw check::CheckError("paranoia: " + boundary + ": " + structure +
                              ": " + std::move(why));
    };
    require(check::check_aig(ctx.current), "working AIG");
    if (ctx.egraph.has_value()) {
      require(check::check_egraph(ctx.egraph->egraph), "e-graph");
    }
    if (ctx.netlist.has_value()) {
      require(check::check_netlist(*ctx.netlist), "netlist");
    }
  };
  validate("flow input");

  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (ctx.should_stop()) {
      ctx.cancelled = true;
      break;
    }
    const Stage& stage = *stages_[i];
    if (ctx.observer != nullptr) ctx.observer->on_stage_begin(stage, ctx);
    Timer stage_timer;
    stage.run(ctx);
    StageTelemetry telemetry{stage.name(), i, stage_timer.seconds()};
    ctx.telemetry.stages.push_back(telemetry);
    if (ctx.observer != nullptr) {
      ctx.observer->on_stage_end(stage, telemetry, ctx);
    }
    validate("after stage " + std::string(stage.name()));
  }

  // FlowQor::seconds is the optimization time: every stage except the
  // verification.
  double optimization = 0.0;
  for (const StageTelemetry& s : ctx.telemetry.stages) {
    if (s.name != std::string_view("Cec")) optimization += s.seconds;
  }
  ctx.qor.seconds = optimization;
  ctx.telemetry.total_seconds = ctx.stopwatch.seconds();

  if (ctx.observer != nullptr) ctx.observer->on_flow_end(ctx);
  return ctx.take_result();
}

FlowResult Pipeline::run(const Aig& input, const FlowParams& params,
                         FlowObserver* observer) const {
  FlowContext ctx;
  ctx.params = params;
  ctx.input = input;
  ctx.observer = observer;
  return run(ctx);
}

Pipeline Pipeline::baseline(const FlowParams& params) {
  Pipeline pipeline;
  if (params.fraig_pre) pipeline.add(StagePtr(new FraigStage()));
  pipeline.add(StagePtr(new ResynRoundsStage(ResynRoundsStage::Rounds::kAll)));
  if (params.fraig_post) pipeline.add(StagePtr(new FraigStage()));
  if (params.use_lutmap) {
    pipeline.add(StagePtr(new LutMapStage()));
  } else {
    pipeline.add(StagePtr(new TechMapStage(/*resynth_gate=*/false)));
  }
  return pipeline;
}

Pipeline Pipeline::emorphic(const FlowParams& params) {
  if (params.partition) {
    // The scaling mode: the whole-circuit conversion/rewrite/extract body
    // cannot hold a million-gate design in one e-graph, so the partition
    // stage runs the same saturation per window and stitches. The final
    // Cec stage (gated by params.verify, like every flow) proves the
    // stitched circuit against the input end to end.
    Pipeline pipeline;
    if (params.fraig_pre) pipeline.add(StagePtr(new FraigStage()));
    pipeline.add(StagePtr(new PartitionStage()));
    pipeline.add(StagePtr(new CecStage()));
    return pipeline;
  }
  Pipeline pipeline;
  if (params.fraig_pre) pipeline.add(StagePtr(new FraigStage()));
  pipeline.add(
      StagePtr(new ResynRoundsStage(ResynRoundsStage::Rounds::kAllButLast)));
  pipeline.add(StagePtr(new EgraphConversionStage()));  // forward
  pipeline.add(StagePtr(new RewriteStage()));
  pipeline.add(StagePtr(new SaExtractStage()));
  if (params.use_choicemap) {
    // Choice-aware tail: one stage lowers the SA winner plus the verified
    // alternative rings and maps across all of them. fraig_post has no
    // network to sweep here (the stage rebuilds ctx.current from the
    // e-graph), so it is ignored in this configuration. With use_lutmap
    // the same shape holds, with LUTs as the backend.
    pipeline.add(params.use_lutmap ? StagePtr(new LutMapStage())
                                   : StagePtr(new ChoiceMapStage()));
  } else {
    pipeline.add(StagePtr(new EgraphConversionStage()));  // backward
    if (params.fraig_post) pipeline.add(StagePtr(new FraigStage()));
    if (params.use_lutmap) {
      pipeline.add(StagePtr(new LutMapStage()));
    } else {
      pipeline.add(StagePtr(new TechMapStage(/*resynth_gate=*/true)));
    }
  }
  pipeline.add(StagePtr(new CecStage()));
  return pipeline;
}

}  // namespace emorphic
