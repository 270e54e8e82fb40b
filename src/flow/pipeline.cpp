#include "flow/pipeline.hpp"

#include <array>
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

LutMapperParams lut_params(const FlowParams& params) {
  LutMapperParams lut;
  lut.lut_size = params.lut_size;
  return lut;
}

/// Publish the cover's QoR: µm² and ps for a cell netlist, LUT count and
/// LUT levels for a LUT cover.
void set_mapped_qor(FlowContext& ctx) {
  ctx.qor.area = ctx.netlist->area();
  ctx.qor.delay = ctx.netlist->delay();
  ctx.qor.lev = ctx.current.num_levels();
}

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

  // The partitioned flow owns the file at window granularity and hands
  // its windows an empty checkpoint_path.
  const bool checkpointing = !ctx.params.checkpoint_path.empty();
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
  set_mapped_qor(ctx);
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

void ChoiceMapStage::run(FlowContext& ctx) const {
  if (!ctx.egraph.has_value()) {
    throw std::runtime_error(std::string(name()) +
                             " stage needs an e-graph: add EgraphConversion "
                             "first");
  }
  // The committed extraction (the SA winner, else a greedy depth
  // extraction) defines the representative cone; the rings carry
  // everything else the saturation discovered. ctx.current becomes the
  // plain extraction (what verification and downstream stages see); the
  // annotation is what gets mapped, Pareto-gated so the rings can only
  // improve the cover, never hurt it.
  Extraction solution =
      sa_ran(ctx)
          ? ctx.sa.best
          : greedy_extract(ctx.egraph->egraph, CostModel{CostKind::kDepth});
  ChoiceAig choice_aig = egraph_to_choice_aig(
      *ctx.egraph, solution, ctx.params.choice_export, &ctx.choice_stats);
  ctx.current = egraph_to_aig(*ctx.egraph, solution);
  ChoiceMapOutcome outcome =
      backend_ == Backend::kCells
          ? map_with_choices_gated(choice_aig, *ctx.shared_matcher(),
                                   ctx.params.mapping, &ctx.mapper_workspace)
          : map_with_choices_gated(choice_aig, lut_params(ctx.params),
                                   &ctx.mapper_workspace);
  ctx.netlist = std::move(outcome.netlist);
  set_mapped_qor(ctx);
}

// --- lutmap -----------------------------------------------------------------

void LutMapStage::run(FlowContext& ctx) const {
  ctx.current = strash(ctx.current);
  // A LUT cover is not a cell netlist: a later TechMap remaps instead of
  // reusing it.
  ctx.netlist =
      map_to_luts(ctx.current, lut_params(ctx.params), &ctx.mapper_workspace);
  set_mapped_qor(ctx);
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

// --- stages and recipes by name ---------------------------------------------

namespace {

using StageMaker = StagePtr (*)();

template <class S, auto... kArgs>
StagePtr make() {
  return std::make_unique<S>(kArgs...);
}

struct NamedStage {
  std::string_view name;
  StageMaker make;
};

/// Every built-in stage, default-configured, by name.
constexpr NamedStage kStages[] = {
    {"ResynRounds", make<ResynRoundsStage>},
    {"EgraphConversion", make<EgraphConversionStage>},
    {"Rewrite", make<RewriteStage>},
    {"SaExtract", make<SaExtractStage>},
    {"TechMap", make<TechMapStage>},
    {"Cec", make<CecStage>},
    {"fraig", make<FraigStage>},
    {"choicemap", make<ChoiceMapStage>},
    {"choicemap-lut", make<ChoiceMapStage, ChoiceMapStage::Backend::kLuts>},
    {"lutmap", make<LutMapStage>},
    {"partition", make<PartitionStage>},
};

constexpr StageMaker kResynButLast =
    make<ResynRoundsStage, ResynRoundsStage::Rounds::kAllButLast>;
constexpr StageMaker kConvert = make<EgraphConversionStage>;
constexpr StageMaker kRewrite = make<RewriteStage>;
constexpr StageMaker kSaExtract = make<SaExtractStage>;
constexpr StageMaker kCec = make<CecStage>;

/// A named flow: its stages in order; a list shorter than the array ends
/// at the first null entry.
struct Recipe {
  std::string_view name;
  std::array<StageMaker, 7> stages;
};

constexpr Recipe kRecipes[] = {
    {"baseline", {make<ResynRoundsStage>, make<TechMapStage>}},
    {"baseline-lut", {make<ResynRoundsStage>, make<LutMapStage>}},
    {"emorphic",
     {kResynButLast, kConvert, kRewrite, kSaExtract, kConvert,
      make<TechMapStage, /*resynth_gate=*/true>, kCec}},
    {"emorphic-choice",
     {kResynButLast, kConvert, kRewrite, kSaExtract, make<ChoiceMapStage>,
      kCec}},
    {"emorphic-lut",
     {kResynButLast, kConvert, kRewrite, kSaExtract, kConvert,
      make<LutMapStage>, kCec}},
    {"emorphic-choice-lut",
     {kResynButLast, kConvert, kRewrite, kSaExtract,
      make<ChoiceMapStage, ChoiceMapStage::Backend::kLuts>, kCec}},
    {"partition", {make<PartitionStage>, kCec}},
};

template <class Table>
std::vector<std::string> names_of(const Table& table) {
  std::vector<std::string> names;
  for (const auto& entry : table) names.emplace_back(entry.name);
  return names;
}

template <class Table>
[[noreturn]] void throw_unknown(const char* what, std::string_view name,
                                const Table& table) {
  std::string known;
  for (const std::string& n : names_of(table)) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" +
                              std::string(name) + "' (known: " + known + ")");
}

}  // namespace

StagePtr make_stage(const std::string& name) {
  for (const NamedStage& stage : kStages) {
    if (stage.name == name) return stage.make();
  }
  throw_unknown("stage", name, kStages);
}

std::vector<std::string> builtin_stage_names() { return names_of(kStages); }

std::vector<std::string> recipe_names() { return names_of(kRecipes); }

// --- Pipeline ---------------------------------------------------------------

Pipeline& Pipeline::add(StagePtr stage) {
  stages_.emplace_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::add(const std::string& stage_name) {
  return add(make_stage(stage_name));
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

Pipeline Pipeline::recipe(std::string_view name) {
  for (const Recipe& recipe : kRecipes) {
    if (recipe.name != name) continue;
    Pipeline pipeline;
    for (StageMaker maker : recipe.stages) {
      if (maker == nullptr) break;
      pipeline.add(maker());
    }
    return pipeline;
  }
  throw_unknown("recipe", name, kRecipes);
}

Pipeline Pipeline::baseline(const FlowParams& /*params*/) {
  return recipe("baseline");
}

Pipeline Pipeline::emorphic(const FlowParams& params) {
  // The one flag alias of a recipe left: perfbench selects its partitioned
  // workload through FlowParams::partition.
  return recipe(params.partition ? "partition" : "emorphic");
}

}  // namespace emorphic
