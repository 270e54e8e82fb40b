// service_mixed: the synthesis service under a closed loop of two clients.
// Each client sends its next job only after the previous result arrived.
// The job mix is a seeded stream over small EPFL circuits through both the
// emorphic and the baseline flow; half the requests repeat a (circuit,
// flow, seed) the same client already received, so result-cache hits are
// deterministic. One server serves the whole run; its warm cache is
// cleared before every pass, so each pass meets the same cold caches and
// does the same work.

#include <algorithm>
#include <atomic>
#include <exception>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/aig_io.hpp"
#include "aig/sim.hpp"
#include "benchgen/epfl.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emorphic;
using namespace emorphic::service;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
/// Cold jobs per (circuit, flow) pair, per client and pass.
constexpr unsigned kColdPerPair = 2;
const std::vector<std::string> kCircuits = {"adder", "arbiter", "sin"};
const std::vector<std::string> kFlows = {"emorphic", "baseline"};

/// A micro_service-style fast profile: one SA chain per job, small
/// saturation budget, verification on under the shared CEC budget.
FlowParams service_params() {
  FlowParams p;
  p.rounds = 2;
  p.rewrite.max_iterations = 2;
  p.rewrite.max_enodes = 8000;
  p.rewrite.time_limit_s = kNoRewriteTimeLimit;
  p.sa.iterations = 2;
  p.sa.moves_per_iteration = 2;
  p.sa.num_threads = 1;
  p.verify = true;
  p.cec_params = bench_cec_params();
  return p;
}

struct Request {
  std::size_t circuit = 0;  // index into kCircuits
  std::string flow;
  std::uint64_t seed = 0;
  bool repeat = false;
};

/// Client `client`'s job stream: every (circuit, flow) pair kColdPerPair
/// times with its own SA seed, each followed later by exactly one repeat,
/// in seeded order. Seeds are unique per client, so clients never share a
/// result-cache entry, and the cold/repeat mix is the same for every seed.
std::vector<Request> client_stream(std::uint64_t seed, unsigned client) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + client + 1);
  std::vector<Request> cold;
  for (std::size_t c = 0; c < kCircuits.size(); ++c) {
    for (const std::string& flow : kFlows) {
      for (unsigned k = 0; k < kColdPerPair; ++k) {
        Request r;
        r.circuit = c;
        r.flow = flow;
        r.seed = (seed << 16) + (client << 8) + cold.size() + 1;
        cold.push_back(r);
      }
    }
  }
  for (std::size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[rng.next_below(i)]);
  }
  std::vector<Request> stream;
  std::vector<Request> pending;  // sent, not yet repeated
  std::size_t next = 0;
  while (next < cold.size() || !pending.empty()) {
    const bool repeat =
        next == cold.size() || (!pending.empty() && rng.chance(0.5));
    if (repeat) {
      const std::size_t i = rng.next_below(pending.size());
      Request r = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      r.repeat = true;
      stream.push_back(r);
    } else {
      stream.push_back(cold[next]);
      pending.push_back(cold[next++]);
    }
  }
  return stream;
}

struct Served {
  Request request;
  unsigned client = 0;
  Json terminal;          // result / cancelled / error frame
  double latency_s = 0.0;
  double admit_s = 0.0;   // submit -> accepted
  double queue_s = -1.0;  // accepted -> first progress frame (traced runs)
};

/// One server plus its connected clients; what set-up builds.
struct Deployment {
  double generate_s = 0.0;
  std::vector<Aig> circuits;
  std::vector<std::string> aiger;
  std::unique_ptr<SynthServer> server;
  std::vector<SynthClient> clients;

  void stop() {
    clients.clear();
    if (server != nullptr) server->stop();
  }
};

/// Traced runs swap the built-in flows for stage-wrapped copies of
/// themselves (same names, so cache keys and results are unchanged). The
/// wrappers take the current pass's job-id prefix and counters from here.
struct TraceState {
  Tracer* tracer = nullptr;
  std::mutex mutex;  // guards the two fields below
  std::string job_prefix;
  FlowCounters* counters = nullptr;

  std::string job(std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mutex);
    return job_prefix + std::to_string(seed);
  }
  void add(const FlowContext& ctx, bool verified) {
    std::lock_guard<std::mutex> lock(mutex);
    counters->add(ctx, verified);
  }
};

Deployment deploy(TraceState* trace) {
  Deployment d;
  Timer generate;
  for (const std::string& name : kCircuits) {
    d.circuits.push_back(make_epfl(name));
    d.aiger.push_back(write_aiger(d.circuits.back()));
  }
  d.generate_s = generate.seconds();
  ServerConfig config;
  config.workers = kWorkers;
  config.queue_capacity = 16;
  config.base_params = service_params();
  d.server = std::make_unique<SynthServer>(config);
  if (trace != nullptr) {
    for (const std::string& flow : kFlows) {
      const bool verified = flow == "emorphic";
      d.server->add_flow(flow, [trace, flow, verified](const FlowParams& p) {
        Pipeline base = flow == "emorphic" ? Pipeline::emorphic(p)
                                           : Pipeline::baseline(p);
        return traced_pipeline(
            base, trace->tracer,
            [trace](const FlowContext& ctx) { return trace->job(ctx.seed); },
            [trace, verified](const FlowContext& ctx) {
              trace->add(ctx, verified);
            });
      });
    }
  }
  d.server->start();
  for (unsigned c = 0; c < kClients; ++c) {
    d.clients.push_back(
        SynthClient::connect_tcp("127.0.0.1", d.server->tcp_port()));
    if (!d.clients.back().ping()) throw std::runtime_error("server not answering");
  }
  return d;
}

/// Drive one client's stream closed-loop.
std::vector<Served> drive(SynthClient& client, const Deployment& d,
                          const std::vector<Request>& stream, unsigned c,
                          TraceState* trace) {
  std::vector<Served> out;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const Request& r = stream[k];
    JobRequest job;
    job.id = std::string("c") + std::to_string(c) + "-" + std::to_string(k);
    job.circuit = d.aiger[r.circuit];
    job.flow = r.flow;
    job.seed = r.seed;
    job.return_circuit = true;
    job.progress = trace != nullptr;  // for the queue-wait span

    Served s;
    s.request = r;
    s.client = c;
    Tracer* tracer = trace != nullptr ? trace->tracer : nullptr;
    const std::string name = trace != nullptr ? trace->job(r.seed) : "";
    const Tracer::SpanId span =
        tracer != nullptr ? tracer->begin("service.job", name) : -1;
    const double start = tracer != nullptr ? tracer->now() : 0.0;
    Timer timer;
    Json verdict = client.submit(job);
    s.admit_s = timer.seconds();
    double first_progress_s = -1.0;
    if (verdict.at("type").as_string() == "accepted") {
      s.terminal = client.await(job.id, [&](const Json& frame) {
        if (first_progress_s < 0.0 &&
            frame.at("type").as_string() == "progress") {
          first_progress_s = timer.seconds();
        }
      });
      if (first_progress_s >= 0.0) s.queue_s = first_progress_s - s.admit_s;
    } else {
      s.terminal = verdict;
    }
    s.latency_s = timer.seconds();
    if (tracer != nullptr) {
      tracer->record("service.admit", name, start, start + s.admit_s);
      if (s.queue_s >= 0.0) {
        tracer->record("service.queue", name, start + s.admit_s,
                       start + s.admit_s + s.queue_s);
      }
      tracer->end(span);
    }
    out.push_back(std::move(s));
  }
  return out;
}

Outcome outcome_of_frame(const Json& frame) {
  const std::string& type = frame.at("type").as_string();
  if (type == "cancelled") return Outcome::kCancelled;
  if (type == "error") {
    return frame.contains("code") &&
                   frame.at("code").as_string() ==
                       to_string(ErrorCode::kOverloaded)
               ? Outcome::kRefused
               : Outcome::kError;
  }
  const std::string& verify = frame.at("verify").as_string();
  if (verify == cec_status_name(CecStatus::kEquivalent)) return Outcome::kProven;
  if (verify == cec_status_name(CecStatus::kNotEquivalent)) {
    return Outcome::kRefuted;
  }
  return Outcome::kUndecided;
}

struct Pass {
  double seconds = 0.0;
  std::vector<Served> served;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t rejected = 0;
  WarmCacheStats cache;
  FlowCounters counters;  // traced runs only
};

/// QoR of every distinct served job must equal a one-shot Pipeline run
/// with the same parameters and seed. Runs the one-shot flows on up to
/// four threads (one SA chain each).
void check_one_shot(const std::vector<Served>& cold,
                    const std::vector<Aig>& circuits,
                    std::vector<std::string>* errors) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  auto worker = [&] {
    for (std::size_t i = next++; i < cold.size(); i = next++) {
      const Served& s = cold[i];
      FlowContext ctx;
      ctx.params = service_params();
      ctx.input = circuits[s.request.circuit];
      ctx.seed = s.request.seed;
      Pipeline pipeline = s.request.flow == "emorphic"
                              ? Pipeline::emorphic(ctx.params)
                              : Pipeline::baseline(ctx.params);
      FlowResult local;
      try {
        local = pipeline.run(ctx);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex);
        errors->push_back(std::string("one-shot run threw: ") + e.what());
        continue;
      }
      const Json& q = s.terminal.at("qor");
      if (q.at("area").as_number() != local.qor.area ||
          q.at("delay").as_number() != local.qor.delay ||
          q.at("lev").as_int() != static_cast<std::int64_t>(local.qor.lev)) {
        std::lock_guard<std::mutex> lock(mutex);
        errors->push_back("served QoR of " + kCircuits[s.request.circuit] +
                          "/" + s.request.flow + " seed " +
                          std::to_string(s.request.seed) +
                          " differs from a one-shot run");
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned n = std::min<unsigned>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

}  // namespace

RunReport run_service_mixed(const Options& options) {
  RunReport report;
  check_no_wall_clock_limits(service_params(), &report.errors);
  if (!report.errors.empty()) return report;
  std::vector<std::vector<Request>> streams;
  for (unsigned c = 0; c < kClients; ++c) {
    streams.push_back(client_stream(options.seed, c));
  }

  // Set-up: generate + serialize the circuits, start a server, connect the
  // clients. Timed kSetupReps times; the last deployment serves the run.
  Tracer tracer;
  TraceState trace_state;
  trace_state.tracer = &tracer;
  TraceState* trace = options.trace ? &trace_state : nullptr;
  std::vector<double> setup_s, generate_s;
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.stop();
    Timer setup;
    d = deploy(trace);
    setup_s.push_back(setup.seconds());
    generate_s.push_back(d.generate_s);
  }

  std::vector<Pass> passes;
  ServerStats before = d.server->stats();
  Timer measured;
  do {
    Pass pass;
    {
      std::lock_guard<std::mutex> lock(trace_state.mutex);
      trace_state.job_prefix = std::string("p") + std::to_string(passes.size()) + "/";
      trace_state.counters = &pass.counters;
    }
    d.server->warm_cache().clear();

    std::vector<std::vector<Served>> per_client(kClients);
    std::mutex errors_mutex;
    Timer pass_timer;
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          try {
            per_client[c] = drive(d.clients[c], d, streams[c], c, trace);
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(errors_mutex);
            report.errors.push_back(std::string("client: ") + e.what());
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    if (!report.errors.empty()) return report;
    pass.seconds = pass_timer.seconds();
    const ServerStats after = d.server->stats();
    pass.result_cache_hits = after.result_cache_hits - before.result_cache_hits;
    pass.rejected = after.rejected_overloaded + after.rejected_malformed -
                    before.rejected_overloaded - before.rejected_malformed;
    before = after;
    pass.cache = d.server->warm_cache().stats();
    for (auto& v : per_client) {
      for (Served& s : v) pass.served.push_back(std::move(s));
    }
    passes.push_back(std::move(pass));
  } while (another_pass_fits(measured.seconds(), passes.back().seconds,
                             options.seconds));
  const double rss_mb = peak_rss_mb();
  d.stop();
  const std::vector<Aig>& circuits = d.circuits;

  // --- checks (untimed) ----------------------------------------------------
  std::vector<double> pass_s, run_ms, hit_ms, area, delay, ands;
  double admit_s = 0.0;
  double queue_s = 0.0;
  std::size_t queued = 0;
  std::vector<Served> cold;
  std::uint64_t qor_hits = 0;
  std::uint64_t qor_lookups = 0;
  std::string first_exact;
  Rng rng(options.seed);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    pass_s.push_back(pass.seconds);
    qor_hits += pass.cache.qor_hits;
    qor_lookups += pass.cache.qor_hits + pass.cache.qor_misses;
    std::ostringstream exact;
    exact << std::setprecision(17);
    for (const Served& s : pass.served) {
      const Outcome outcome = outcome_of_frame(s.terminal);
      report.failures.add(outcome);
      admit_s += s.admit_s;
      if (s.queue_s >= 0.0) {
        queue_s += s.queue_s;
        ++queued;
      }
      const std::string what = kCircuits[s.request.circuit] + "/" +
                               s.request.flow + " seed " +
                               std::to_string(s.request.seed);
      if (s.terminal.at("type").as_string() != "result") {
        report.errors.push_back(what + ": " + s.terminal.dump());
        continue;
      }
      if (s.terminal.at("stop_reason").as_string() !=
          to_string(FlowStopReason::kNone)) {
        report.errors.push_back(what + ": a flow stop signal fired");
      }
      const Aig out = read_aiger(s.terminal.at("circuit").as_string());
      if (!sim_probably_equal(circuits[s.request.circuit], out, rng)) {
        report.errors.push_back(what +
                                ": output differs from input in simulation");
      }
      const bool hit = s.terminal.at("cache_hit").as_bool();
      if (hit != s.request.repeat) {
        report.errors.push_back(what + ": cache hit does not match repeat");
      }
      (hit ? hit_ms : run_ms).push_back(1e3 * s.latency_s);
      const Json& q = s.terminal.at("qor");
      exact << "c" << s.client << " " << what << " hit=" << hit
            << " verify=" << s.terminal.at("verify").as_string()
            << " area=" << q.at("area").as_number()
            << " delay=" << q.at("delay").as_number()
            << " lev=" << q.at("lev").as_int() << " ands=" << out.num_ands()
            << "\n";
      if (p == 0 && !hit) {
        cold.push_back(s);
        area.push_back(q.at("area").as_number());
        delay.push_back(q.at("delay").as_number());
        ands.push_back(static_cast<double>(out.num_ands()));
      }
    }
    exact << "result_cache_hits=" << pass.result_cache_hits
          << " rejected=" << pass.rejected << "\n";
    if (p == 0) {
      first_exact = exact.str();
    } else if (exact.str() != first_exact) {
      report.errors.push_back("pass " + std::to_string(p) +
                              " differs from pass 0 (same seed)");
    }
    if (pass.counters.time_limit_stops > 0) {
      report.errors.push_back("saturation stopped on its time limit");
    }
    if (options.trace && pass.counters.exact_text() !=
                             passes.front().counters.exact_text()) {
      report.errors.push_back("traced counters of pass " + std::to_string(p) +
                              " differ from pass 0");
    }
  }
  report.exact = first_exact;
  if (!report.errors.empty()) return report;
  check_one_shot(cold, circuits, &report.errors);
  if (!report.errors.empty()) return report;

  const double flow_s = median(pass_s);
  const double jobs = static_cast<double>(passes.front().served.size());
  if (!options.trace) {
    Metrics& m = report.metrics;
    m["setup_s"] = {median(setup_s), "s"};
    m["flow_s"] = {flow_s, "s"};
    m["jobs_per_s"] = {jobs / flow_s, "1/s"};
    m["failed_ratio"] = {report.failures.failed_ratio(), "ratio"};
    m["area_geomean"] = {geomean(area), "um2"};
    m["delay_geomean"] = {geomean(delay), "ps"};
    m["ands_after"] = {geomean(ands), "count"};
    m["peak_rss_mb"] = {rss_mb, "MiB"};
    return report;
  }

  const Pass& first = passes.front();
  Metrics& m = report.metrics;
  m = layer_metrics(tracer, static_cast<int>(passes.size()), first.counters);
  m["flow.warm_qor_hit_ratio"] = {
      qor_lookups > 0 ? static_cast<double>(qor_hits) /
                            static_cast<double>(qor_lookups)
                      : 0.0,
      "ratio"};
  const double served = static_cast<double>(report.failures.attempted);
  m["service.admit_ms"] = {1e3 * admit_s / served, "ms"};
  m["service.queue_ms"] = {
      queued > 0 ? 1e3 * queue_s / static_cast<double>(queued) : 0.0, "ms"};
  m["service.result_cache_hits"] = {
      static_cast<double>(first.result_cache_hits), "count"};
  m["service.rejected"] = {static_cast<double>(first.rejected), "count"};
  m["run_p50_ms"] = {percentile(run_ms, 0.50).value_or(0.0), "ms"};
  m["run_p90_ms"] = {percentile(run_ms, 0.90).value_or(0.0), "ms"};
  m["hit_p50_ms"] = {percentile(hit_ms, 0.50).value_or(0.0), "ms"};
  m["benchgen.generate_s"] = {median(generate_s), "s"};
  m["trace.flow_s"] = {flow_s, "s"};
  write_trace_files(tracer, options);
  return report;
}

}  // namespace perfbench
