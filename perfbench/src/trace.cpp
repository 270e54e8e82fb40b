#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

using emorphic::Json;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double wall_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer()
    : origin_cpu_(process_cpu_seconds()), origin_wall_(wall_seconds()) {}

double Tracer::now() const { return wall_seconds() - origin_wall_; }

std::uint32_t Tracer::thread_index() {
  const std::uint64_t id = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto [it, inserted] =
      threads_.emplace(id, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

Tracer::SpanId Tracer::begin(std::string name, std::string job) {
  const double cpu = process_cpu_seconds();
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanId>& stack = open_[job];
  Span span;
  span.name = std::move(name);
  span.job = std::move(job);
  span.parent = stack.empty() ? -1 : stack.back();
  span.thread = thread_index();
  span.start_s = start;
  const auto id = static_cast<SpanId>(spans_.size());
  spans_.push_back(std::move(span));
  begin_cpu_.resize(spans_.size(), 0.0);
  begin_cpu_[static_cast<std::size_t>(id)] = cpu;
  stack.push_back(id);
  return id;
}

void Tracer::end(SpanId id) {
  const double end = now();
  const double cpu = process_cpu_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_s = end;
  span.cpu_s = cpu - begin_cpu_[static_cast<std::size_t>(id)];
  std::vector<SpanId>& stack = open_[span.job];
  if (stack.empty() || stack.back() != id) {
    throw std::logic_error("Tracer::end: span '" + span.name +
                           "' is not the innermost open span of its job");
  }
  stack.pop_back();
}

void Tracer::record(std::string name, std::string job, double start_s,
                    double end_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<SpanId>& stack = open_[job];
  Span span;
  span.name = std::move(name);
  span.job = std::move(job);
  span.parent = stack.empty() ? -1 : stack.back();
  span.thread = thread_index();
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  begin_cpu_.resize(spans_.size(), 0.0);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Children may run concurrently (SA chains evaluating in parallel):
    // subtract the union of their intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_s);
      hi = std::min(hi, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    const double wall = s.end_s - s.start_s;
    ++t.count;
    t.total_s += wall;
    t.self_s += wall - covered;
    t.cpu_s += s.cpu_s;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  Json events = Json::array();
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    Json e = Json::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = static_cast<std::uint64_t>(s.thread);
    e["ts"] = s.start_s * 1e6;
    e["dur"] = (s.end_s - s.start_s) * 1e6;
    Json args = Json::object();
    args["id"] = static_cast<std::uint64_t>(i);
    args["parent"] = static_cast<std::int64_t>(s.parent);
    args["job"] = s.job;
    e["args"] = args;
    events.push_back(e);
  }
  Json doc = Json::object();
  doc["traceEvents"] = events;
  doc["displayTimeUnit"] = "ms";
  std::ofstream(path) << doc.dump() << "\n";
}

void Tracer::write_summary(const std::string& path) const {
  Json doc = Json::object();
  for (const auto& [name, t] : totals()) {
    Json row = Json::object();
    row["count"] = static_cast<std::uint64_t>(t.count);
    row["total_s"] = t.total_s;
    row["self_s"] = t.self_s;
    row["cpu_s"] = t.cpu_s;
    doc[name] = row;
  }
  std::ofstream(path) << doc.dump(2) << "\n";
}

std::string stage_span_name(const std::string& stage) {
  static const std::map<std::string, std::string> kNames = {
      {"ResynRounds", "opt.resyn"},     {"partition", "opt.partition"},
      {"fraig", "opt.fraig"},           {"EgraphConversion", "flow.conversion"},
      {"Rewrite", "egraph.rewrite"},    {"SaExtract", "extract.sa"},
      {"TechMap", "mapper.techmap"},    {"choicemap", "mapper.choicemap"},
      {"lutmap", "mapper.lutmap"},      {"Cec", "cec.verify"},
  };
  auto it = kNames.find(stage);
  return it != kNames.end() ? it->second : "flow." + stage;
}

void TracedStage::run(emorphic::FlowContext& ctx) const {
  const std::string job = job_of_(ctx);
  const Tracer::SpanId span = tracer_->begin(stage_span_name(name()), job);
  try {
    inner_->run(ctx);
  } catch (...) {
    tracer_->end(span);
    throw;
  }
  tracer_->end(span);
  if (on_last_) on_last_(ctx);
}

emorphic::Pipeline traced_pipeline(const emorphic::Pipeline& pipeline,
                                   Tracer* tracer,
                                   const TracedStage::JobOf& job_of,
                                   const TracedStage::OnLast& on_last) {
  emorphic::Pipeline traced;
  const auto& stages = pipeline.stages();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    traced.add(std::make_unique<TracedStage>(
        stages[i], tracer, job_of,
        i + 1 == stages.size() ? on_last : TracedStage::OnLast{}));
  }
  return traced;
}

emorphic::Qor TimedEvaluator::evaluate(const emorphic::Aig& candidate) const {
  const double start = tracer_->now();
  emorphic::Qor qor = inner_.evaluate(candidate);
  tracer_->record("mapper.eval", job_, start, tracer_->now());
  return qor;
}

}  // namespace perfbench
