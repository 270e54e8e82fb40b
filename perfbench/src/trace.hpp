#pragma once
// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer of the program, kept in memory, written out at the
// end as a Chrome trace-event file plus a flat per-layer summary.
//
// Nothing here reaches inside the library. Stage spans come from
// TracedStage, which wraps each stage of a Pipeline (so it works the same
// in-process and inside the synthesis server's workers); evaluator spans
// come from TimedEvaluator, a QorEvaluator wrapper; the service workload
// records client-side protocol spans itself.
//
// Spans are parented per job: a span begun for job J becomes the child of
// J's innermost open span, so a server-side stage nests under the
// client-side span of the request that caused it.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"

namespace perfbench {

/// Process CPU seconds (all threads) since process start.
double process_cpu_seconds();

struct Span {
  std::string name;  // "<layer>.<what>", e.g. "egraph.rewrite"
  std::string job;   // circuit or job id; empty for pass-level spans
  std::int64_t parent = -1;
  std::uint32_t thread = 0;
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;
  double cpu_s = 0.0;    // process CPU seconds over the span
};

/// Per span name: count, summed wall time, summed self time (wall minus
/// the union of the span's children), summed process CPU time.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double cpu_s = 0.0;
};

class Tracer {
 public:
  using SpanId = std::int64_t;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since construction.
  double now() const;

  /// Open a span for `job`, nested under the job's innermost open span.
  SpanId begin(std::string name, std::string job);
  /// Close a span opened by begin().
  void end(SpanId id);
  /// Add an already finished span, nested like begin() would nest it.
  void record(std::string name, std::string job, double start_s,
              double end_s);

  std::vector<Span> spans() const;
  /// Totals keyed by span name.
  std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace-event JSON (opens in chrome://tracing or Perfetto).
  void write_chrome_trace(const std::string& path) const;
  /// Flat per-layer summary: one row per span name, with self time.
  void write_summary(const std::string& path) const;

 private:
  std::uint32_t thread_index();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<SpanId>> open_;  // per-job span stack
  std::map<std::uint64_t, std::uint32_t> threads_;   // hashed id -> index
  double origin_cpu_ = 0.0;
  double origin_wall_ = 0.0;
  std::vector<double> begin_cpu_;  // process CPU at begin, per span
};

/// Span name of a pipeline stage ("Rewrite" -> "egraph.rewrite", ...).
std::string stage_span_name(const std::string& stage);

/// Wraps one stage of a pipeline in a span. `job_of` names the job a
/// context belongs to; `on_last` (may be empty) runs after the wrapped
/// pipeline's last stage, with every result field of the context filled.
class TracedStage : public emorphic::Stage {
 public:
  using JobOf = std::function<std::string(const emorphic::FlowContext&)>;
  using OnLast = std::function<void(const emorphic::FlowContext&)>;

  TracedStage(std::shared_ptr<const emorphic::Stage> inner, Tracer* tracer,
              JobOf job_of, OnLast on_last)
      : inner_(std::move(inner)),
        tracer_(tracer),
        job_of_(std::move(job_of)),
        on_last_(std::move(on_last)) {}

  const char* name() const override { return inner_->name(); }
  void run(emorphic::FlowContext& ctx) const override;

 private:
  std::shared_ptr<const emorphic::Stage> inner_;
  Tracer* tracer_;
  JobOf job_of_;
  OnLast on_last_;
};

/// `pipeline` with every stage wrapped in a TracedStage.
emorphic::Pipeline traced_pipeline(const emorphic::Pipeline& pipeline,
                                   Tracer* tracer,
                                   const TracedStage::JobOf& job_of,
                                   const TracedStage::OnLast& on_last);

/// The flow's default cost model (MapQorEvaluator over a shared matcher),
/// with every call recorded as a "mapper.eval" span of `job`.
class TimedEvaluator : public emorphic::QorEvaluator {
 public:
  TimedEvaluator(std::shared_ptr<const emorphic::Matcher> matcher,
                 double area_weight, Tracer* tracer, std::string job)
      : QorEvaluator(area_weight),
        inner_(std::move(matcher), area_weight),
        tracer_(tracer),
        job_(std::move(job)) {}

  emorphic::Qor evaluate(const emorphic::Aig& candidate) const override;

 private:
  emorphic::MapQorEvaluator inner_;
  Tracer* tracer_;
  std::string job_;
};

}  // namespace perfbench
