#include "service/server.hpp"

#include <unistd.h>

#include <chrono>
#include <exception>
#include <stdexcept>

#include "aig/aig_io.hpp"
#include "cec/cec.hpp"
#include "util/logger.hpp"

namespace emorphic::service {

/// Adapts FlowObserver stage hooks onto the wire as "progress" frames.
/// Installed only when the job asked for progress streaming. A dead client
/// turns progress into cancellation: there is no one left to pay for the
/// rest of the flow.
class ProgressObserver : public FlowObserver {
 public:
  ProgressObserver(SynthServer* server,
                   std::shared_ptr<SynthServer::Job> job)
      : server_(server), job_(std::move(job)) {}

  void on_stage_begin(const Stage& stage, const FlowContext&) override {
    emit(stage.name(), "begin", 0.0);
  }
  void on_stage_end(const Stage& stage, const StageTelemetry& telemetry,
                    const FlowContext&) override {
    emit(stage.name(), "end", telemetry.seconds);
  }

 private:
  void emit(const char* stage, const char* event, double seconds) {
    if (!job_->session->alive.load(std::memory_order_relaxed)) {
      job_->cancel.store(true, std::memory_order_relaxed);
      return;
    }
    Json frame = Json::object();
    frame["type"] = "progress";
    frame["id"] = job_->request.id;
    frame["stage"] = stage;
    frame["event"] = event;
    if (seconds > 0.0) frame["seconds"] = seconds;
    server_->send(job_->session, frame);
  }

  SynthServer* server_;
  std::shared_ptr<SynthServer::Job> job_;
};

SynthServer::SynthServer(ServerConfig config, WarmCache* cache)
    : config_(std::move(config)),
      owned_cache_(cache == nullptr
                       ? std::make_unique<WarmCache>(*config_.base_params.library)
                       : nullptr),
      cache_(cache != nullptr ? cache : owned_cache_.get()),
      queue_(config_.queue_capacity) {
  for (const std::string& name : recipe_names()) {
    flows_[name] = [name](const FlowParams&) {
      return Pipeline::recipe(name);
    };
  }
}

SynthServer::~SynthServer() { stop(); }

void SynthServer::add_flow(const std::string& name, FlowFactory factory) {
  flows_[name] = std::move(factory);
}

void SynthServer::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("SynthServer::start called twice");
  }
  if (!config_.unix_socket_path.empty()) {
    listener_ = Socket::listen_unix(config_.unix_socket_path);
    log_info() << "synth server listening on " << config_.unix_socket_path;
  } else {
    listener_ = Socket::listen_tcp_loopback(config_.tcp_port, &bound_port_);
    log_info() << "synth server listening on 127.0.0.1:" << bound_port_;
  }
  unsigned workers = config_.workers == 0 ? 1 : config_.workers;
  for (unsigned w = 0; w < workers; ++w) {
    worker_threads_.emplace_back(&SynthServer::worker_loop, this);
  }
  // lint:allow(thread-in-library) the service's accept loop
  listener_thread_ = std::thread(&SynthServer::listener_loop, this);
}

void SynthServer::stop() {
  if (stopping_.exchange(true)) return;  // idempotent (the dtor calls stop)
  if (!running_.load()) {
    queue_.close();
    return;
  }
  // 1. Stop admitting: new submits now answer SHUTTING_DOWN, and the
  //    listener unblocks out of accept().
  listener_.shutdown_both();
  if (listener_thread_.joinable()) listener_thread_.join();
  // 2. Drain: close the queue — workers run every already-admitted job to
  //    completion and deliver its response, then exit.
  queue_.close();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  // 3. Tear sessions down (all responses are already on the wire).
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [session, thread] : sessions_) {
      session->alive.store(false);
      session->sock.shutdown_both();
    }
  }
  // The listener (the only other toucher of sessions_) is joined; join the
  // session threads without holding the lock they never take anyway.
  for (auto& [session, thread] : sessions_) {
    if (thread.joinable()) thread.join();
  }
  sessions_.clear();
  listener_.close();
  if (!config_.unix_socket_path.empty()) {
    ::unlink(config_.unix_socket_path.c_str());
  }
  running_.store(false);
  shutdown_cv_.notify_all();
  log_info() << "synth server stopped";
}

void SynthServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool SynthServer::wait_for_shutdown_request(double timeout_s) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  auto requested = [&] { return shutdown_requested_ || stopping_.load(); };
  if (timeout_s < 0.0) {
    shutdown_cv_.wait(lock, requested);
    return true;
  }
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), requested);
}

ServerStats SynthServer::stats() const {
  ServerStats s;
  s.sessions_opened = stat_sessions_.load();
  s.jobs_accepted = stat_accepted_.load();
  s.jobs_completed = stat_completed_.load();
  s.jobs_cancelled = stat_cancelled_.load();
  s.jobs_failed = stat_failed_.load();
  s.rejected_overloaded = stat_overloaded_.load();
  s.rejected_malformed = stat_malformed_.load();
  s.result_cache_hits = stat_cache_hits_.load();
  return s;
}

// --- listener / sessions ----------------------------------------------------

void SynthServer::listener_loop() {
  while (!stopping_.load()) {
    Socket conn = listener_.accept();
    if (!conn.valid()) break;  // listener was shut down
    auto session = std::make_shared<Session>(std::move(conn));
    stat_sessions_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    // Reap finished sessions so a long-running daemon does not accumulate
    // one joinable thread per past connection.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->first->done.load()) {
        it->second.join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    sessions_.emplace_back(
        // lint:allow(thread-in-library) one reader per client connection
        session, std::thread(&SynthServer::session_loop, this, session));
  }
}

void SynthServer::session_loop(std::shared_ptr<Session> session) {
  std::string payload;
  while (true) {
    bool got = false;
    try {
      got = read_frame(session->sock, &payload, config_.max_frame_bytes);
    } catch (const std::exception& e) {
      // Bad magic / oversized length / truncation: the stream cannot be
      // resynchronized, so answer once and hang up.
      stat_malformed_.fetch_add(1, std::memory_order_relaxed);
      send(session, make_error(ErrorCode::kMalformedRequest, e.what()));
      break;
    }
    if (!got) break;  // client hung up cleanly
    Json msg;
    try {
      msg = Json::parse(payload);
    } catch (const std::exception& e) {
      // Framing is still aligned — reject the one message, keep serving.
      stat_malformed_.fetch_add(1, std::memory_order_relaxed);
      send(session, make_error(ErrorCode::kMalformedRequest,
                               std::string("invalid JSON: ") + e.what()));
      continue;
    }
    try {
      handle_message(session, msg);
    } catch (const std::exception& e) {
      stat_failed_.fetch_add(1, std::memory_order_relaxed);
      send(session, make_error(ErrorCode::kInternal, e.what()));
    }
  }
  // A vanished client must not keep burning workers: flag every job this
  // session still has in flight.
  session->alive.store(false);
  cancel_session_jobs(*session);
  session->sock.shutdown_both();
  session->done.store(true);
}

void SynthServer::handle_message(const std::shared_ptr<Session>& session,
                                 const Json& msg) {
  if (!msg.is_object() || !msg.contains("type") ||
      !msg.at("type").is_string()) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session, make_error(ErrorCode::kMalformedRequest,
                             "message must be an object with a string "
                             "'type' field"));
    return;
  }
  const std::string& type = msg.at("type").as_string();
  if (type == "submit") {
    handle_submit(session, msg);
  } else if (type == "cancel") {
    handle_cancel(session, msg);
  } else if (type == "ping") {
    Json pong = Json::object();
    pong["type"] = "pong";
    send(session, pong);
  } else if (type == "shutdown") {
    Json ack = Json::object();
    ack["type"] = "shutting_down";
    send(session, ack);
    // stop() must come from outside a session thread (it joins them);
    // whoever called start() watches wait_for_shutdown_request().
    request_shutdown();
  } else {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session, make_error(ErrorCode::kMalformedRequest,
                             "unknown message type '" + type + "'"));
  }
}

void SynthServer::handle_submit(const std::shared_ptr<Session>& session,
                                const Json& msg) {
  // Best-effort id for error frames before the request parses.
  std::string raw_id;
  if (msg.contains("id") && msg.at("id").is_string()) {
    raw_id = msg.at("id").as_string();
  }

  JobRequest request;
  try {
    request = JobRequest::from_json(msg);
  } catch (const std::invalid_argument& e) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session,
         make_error(ErrorCode::kMalformedRequest, e.what(), raw_id));
    return;
  }

  Aig input;
  try {
    input = request.format == "eqn" ? read_equations(request.circuit)
                                    : read_aiger(request.circuit);
  } catch (const std::exception& e) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session,
         make_error(ErrorCode::kMalformedCircuit, e.what(), request.id));
    return;
  }

  auto flow_it = flows_.find(request.flow);
  if (flow_it == flows_.end()) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    std::string known;
    for (const auto& [name, factory] : flows_) {
      known += (known.empty() ? "" : ", ") + name;
    }
    send(session, make_error(ErrorCode::kUnknownFlow,
                             "no flow registered as '" + request.flow +
                                 "' (registered: " + known + ")",
                             request.id));
    return;
  }

  FlowParams params = config_.base_params;
  Pipeline pipeline;
  try {
    apply_flow_params(&params, request.params);
    pipeline = flow_it->second(params);
    reject_unread_keys(request.params, request.flow, pipeline.stage_names());
  } catch (const std::invalid_argument& e) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session, make_error(ErrorCode::kBadParams, e.what(), request.id));
    return;
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->session = session;
  job->input = std::move(input);
  job->params = params;
  job->pipeline = std::move(pipeline);
  if (config_.cache_results) {
    job->cache_eligible = true;
    job->cache_key = WarmCache::flow_key(
        job->input, job->request.seed,
        params_fingerprint(job->request.flow, job->request.params));
  }
  job->admitted.restart();

  // Admission and the "accepted" frame happen under the session write lock:
  // a worker that finishes instantly needs that same lock to send the
  // result, so accepted-before-result ordering is structural.
  std::lock_guard<std::mutex> wlock(session->write_mutex);
  if (stopping_.load()) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send_locked(*session, make_error(ErrorCode::kShuttingDown,
                                     "server is draining", job->request.id));
    return;
  }
  if (find_job(*session, job->request.id) != nullptr) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send_locked(*session,
                make_error(ErrorCode::kMalformedRequest,
                           "duplicate in-flight job id '" + job->request.id +
                               "'",
                           job->request.id));
    return;
  }
  register_job(job);
  if (!queue_.try_push(job)) {
    unregister_job(*job);
    stat_overloaded_.fetch_add(1, std::memory_order_relaxed);
    send_locked(*session,
                make_error(stopping_.load() ? ErrorCode::kShuttingDown
                                            : ErrorCode::kOverloaded,
                           "admission queue is full", job->request.id));
    return;
  }
  stat_accepted_.fetch_add(1, std::memory_order_relaxed);
  Json accepted = Json::object();
  accepted["type"] = "accepted";
  accepted["id"] = job->request.id;
  accepted["queue_depth"] = static_cast<std::uint64_t>(queue_.size());
  send_locked(*session, accepted);
}

void SynthServer::handle_cancel(const std::shared_ptr<Session>& session,
                                const Json& msg) {
  if (!msg.contains("id") || !msg.at("id").is_string()) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    send(session, make_error(ErrorCode::kMalformedRequest,
                             "cancel requires a string 'id'"));
    return;
  }
  const std::string& id = msg.at("id").as_string();
  std::shared_ptr<Job> job = find_job(*session, id);
  if (job != nullptr) job->cancel.store(true, std::memory_order_relaxed);
  // Always an ack, never an error: a cancel racing the job's completion is
  // normal, and an error frame here could be mistaken for the job failing.
  Json ack = Json::object();
  ack["type"] = "cancel_ack";
  ack["id"] = id;
  ack["found"] = job != nullptr;
  send(session, ack);
}

// --- workers ----------------------------------------------------------------

void SynthServer::worker_loop() {
  // One FlowContext per worker, reused across every job this thread runs:
  // Pipeline::run re-initializes the working state, and the context's
  // mapper/LUT workspaces (cut arenas, DP state) plus the shared matcher
  // survive between jobs, so a warm worker serves the steady state without
  // allocator traffic (WarmCache.WorkerContextReuseIsFlatAndDeterministic
  // in tests/alloc pins this).
  FlowContext ctx;
  std::shared_ptr<Job> job;
  while (queue_.pop(&job)) {
    process(std::move(job), ctx);
    job.reset();
  }
}

namespace {

Json make_cancelled(const std::string& id, FlowStopReason reason) {
  Json frame = Json::object();
  frame["type"] = "cancelled";
  frame["id"] = id;
  // A run can stop early with the reason still unset only in pathological
  // interleavings; report it as a plain cancellation.
  frame["reason"] = reason == FlowStopReason::kNone
                        ? to_string(FlowStopReason::kCancelled)
                        : to_string(reason);
  return frame;
}

}  // namespace

void SynthServer::process(std::shared_ptr<Job> job, FlowContext& ctx) {
  // Drop the previous job's pointers immediately: observer and cancel
  // referred to state owned by that job (and a stack frame of this
  // function), and the early-return paths below bail out before the
  // per-job rebind.
  ctx.observer = nullptr;
  ctx.cancel = nullptr;

  // The deadline covers queue wait too: a job that aged out while queued is
  // answered without running anything.
  double remaining = 0.0;
  if (job->request.deadline_s > 0.0) {
    remaining = job->request.deadline_s - job->admitted.seconds();
    if (remaining <= 0.0) {
      stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
      finish(job, make_cancelled(job->request.id, FlowStopReason::kDeadline));
      return;
    }
  }
  if (job->cancel.load(std::memory_order_relaxed)) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    finish(job, make_cancelled(job->request.id, FlowStopReason::kCancelled));
    return;
  }

  auto make_result = [&](const FlowQor& qor, const Aig& final_aig,
                         CecStatus verify, FlowStopReason stop_reason,
                         bool cache_hit) {
    Json frame = Json::object();
    frame["type"] = "result";
    frame["id"] = job->request.id;
    frame["stop_reason"] = to_string(stop_reason);
    Json q = Json::object();
    q["area"] = qor.area;
    q["delay"] = qor.delay;
    q["lev"] = static_cast<std::uint64_t>(qor.lev);
    q["seconds"] = qor.seconds;
    frame["qor"] = q;
    frame["verify"] = cec_status_name(verify);
    frame["cache_hit"] = cache_hit;
    frame["wall_s"] = job->admitted.seconds();
    if (job->request.return_circuit) frame["circuit"] = write_aiger(final_aig);
    return frame;
  };

  if (job->cache_eligible) {
    CachedFlow hit;
    if (cache_->lookup_flow(job->cache_key, &hit)) {
      stat_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      stat_completed_.fetch_add(1, std::memory_order_relaxed);
      finish(job, make_result(hit.qor, hit.final_aig, hit.verify_status,
                              FlowStopReason::kNone, true));
      return;
    }
  }

  // Rebind the worker's long-lived context to this job. Every per-job
  // pointer is (re)assigned here — observer and cancel point at job-local
  // state and must never leak into the next job on this worker.
  ctx.params = job->params;
  cache_->prepare(ctx);
  ctx.input = job->input;
  ctx.seed = job->request.seed;
  ctx.cancel = &job->cancel;
  ctx.time_budget_s = remaining;
  ProgressObserver progress(this, job);
  ctx.observer = job->request.progress ? &progress : nullptr;

  FlowResult result;
  try {
    result = job->pipeline.run(ctx);
  } catch (const std::exception& e) {
    stat_failed_.fetch_add(1, std::memory_order_relaxed);
    log_error() << "service: flow for job '" << job->request.id
                << "' threw: " << e.what();
    finish(job,
           make_error(ErrorCode::kInternal, e.what(), job->request.id));
    return;
  }

  if (result.cancelled) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    finish(job, make_cancelled(job->request.id, result.stop_reason));
    return;
  }
  // Cache only untainted completions: a run whose budget fired inside the
  // final stage (stop_reason without cancelled) still answered, but is not
  // a canonical result worth serving to others, and a refuted result must
  // never be served again as if it were an answer.
  if (job->cache_eligible && result.stop_reason == FlowStopReason::kNone &&
      result.verify_status != CecStatus::kNotEquivalent) {
    cache_->insert_flow(job->cache_key,
                        CachedFlow{result.qor, result.final_aig,
                                   result.verify_status});
  }
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  finish(job, make_result(result.qor, result.final_aig, result.verify_status,
                          result.stop_reason, false));
}

void SynthServer::finish(const std::shared_ptr<Job>& job, const Json& frame) {
  send(job->session, frame);
  unregister_job(*job);
}

// --- plumbing ---------------------------------------------------------------

void SynthServer::send(const std::shared_ptr<Session>& session,
                       const Json& frame) {
  std::lock_guard<std::mutex> lock(session->write_mutex);
  send_locked(*session, frame);
}

void SynthServer::send_locked(Session& session, const Json& frame) {
  if (!session.alive.load(std::memory_order_relaxed)) return;
  try {
    write_frame(session.sock, frame.dump());
  } catch (const std::exception& e) {
    session.alive.store(false);
    log_warn() << "service: send failed, dropping session: " << e.what();
  }
}

void SynthServer::register_job(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  jobs_.emplace(std::make_pair(job->session.get(), job->request.id), job);
}

void SynthServer::unregister_job(const Job& job) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  jobs_.erase(std::make_pair(job.session.get(), job.request.id));
}

std::shared_ptr<SynthServer::Job> SynthServer::find_job(
    const Session& session, const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(std::make_pair(&session, id));
  return it == jobs_.end() ? nullptr : it->second;
}

void SynthServer::cancel_session_jobs(const Session& session) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  for (auto& [key, job] : jobs_) {
    if (key.first == &session) {
      job->cancel.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace emorphic::service
