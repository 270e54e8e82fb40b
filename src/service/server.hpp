#pragma once
// The synthesis daemon: a persistent server dispatching optimization jobs
// onto a worker pool that shares one warm cache substrate
// (flow/warm_cache.hpp), so the second request for a circuit — or for a
// structure any earlier job visited — is cheaper than the first.
//
// Lifecycle (docs/service.md):
//
//   accept -> one session thread per connection, reading frames
//   submit -> parse + validate; resolve FlowParams; try_push onto the
//             bounded queue (full -> typed OVERLOADED, never blocking)
//   worker -> deadline check; flow-result cache probe; run the pipeline
//             with the job's cancel flag + remaining deadline wired into
//             FlowContext; respond "result" or "cancelled"
//   stop   -> admission closes, queued jobs still run to completion and
//             their responses are delivered, then sessions are torn down
//
// Robustness contract (the abuse suite in tests/service/test_server.cpp):
// malformed frames/messages/circuits get typed errors and never kill the
// server; a disconnected client auto-cancels its in-flight jobs; every
// send failure is contained to the one session.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/warm_cache.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "util/socket.hpp"

namespace emorphic::service {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path. Empty: listen on
  /// TCP 127.0.0.1:tcp_port (0 = ephemeral; read the bound port back with
  /// SynthServer::tcp_port()).
  std::string unix_socket_path;
  std::uint16_t tcp_port = 0;
  /// Worker threads running flows (each flow may itself use
  /// params.sa.num_threads SA chains).
  unsigned workers = 2;
  /// Admission queue bound; a full queue rejects with OVERLOADED.
  std::size_t queue_capacity = 16;
  /// Defaults every job starts from; requests override via "params".
  FlowParams base_params;
  /// Serve repeated (circuit, seed, params) requests from the flow-result
  /// cache instead of re-running the flow.
  bool cache_results = true;
  /// Per-frame payload cap for this server's sessions.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
};

/// Monotonic counters since start() (stats() takes a consistent snapshot).
struct ServerStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_completed = 0;   // "result" frames sent (incl. cache hits)
  std::uint64_t jobs_cancelled = 0;   // "cancelled" frames (flag or deadline)
  std::uint64_t jobs_failed = 0;      // INTERNAL errors from running flows
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_malformed = 0;  // any non-OVERLOADED typed rejection
  std::uint64_t result_cache_hits = 0;
};

/// Builds the Pipeline a job runs, given the job's resolved parameters.
using FlowFactory = std::function<Pipeline(const FlowParams&)>;

class SynthServer {
  friend class ProgressObserver;  // streams FlowObserver hooks onto the wire

 public:
  /// `cache` lets several servers (or a server and an in-process batch
  /// driver) share one substrate; null means the server owns a private one
  /// over config.base_params.library.
  explicit SynthServer(ServerConfig config, WarmCache* cache = nullptr);
  ~SynthServer();

  SynthServer(const SynthServer&) = delete;
  SynthServer& operator=(const SynthServer&) = delete;

  /// Register a flow under `name` (every Pipeline::recipe is
  /// pre-registered under its recipe name). Call before start().
  void add_flow(const std::string& name, FlowFactory factory);

  /// Bind, listen, and spin up workers. Throws std::runtime_error when the
  /// socket cannot be bound.
  void start();

  /// Drain and shut down: admission closes immediately (new submits get
  /// SHUTTING_DOWN), queued jobs run to completion and their responses are
  /// delivered, then sessions and threads are torn down. Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  /// The bound TCP port (after start(); 0 for Unix-domain servers).
  std::uint16_t tcp_port() const { return bound_port_; }

  /// Arm the flag wait_for_shutdown_request() watches. Called by the
  /// "shutdown" protocol message; safe from any thread. The caller of
  /// wait_for_shutdown_request is responsible for then calling stop() —
  /// a session thread cannot join itself.
  void request_shutdown();

  /// Block until request_shutdown() (true) or `timeout_s` elapsed (false).
  /// Negative timeout waits forever.
  bool wait_for_shutdown_request(double timeout_s = -1.0);

  ServerStats stats() const;
  WarmCache& warm_cache() { return *cache_; }
  const ServerConfig& config() const { return config_; }

 private:
  struct Session {
    explicit Session(Socket sock_in) : sock(std::move(sock_in)) {}
    Socket sock;
    /// Serializes all frames to this client. Admission holds it across
    /// {try_push, send "accepted"} so a fast worker's result frame (which
    /// also needs it) can never overtake the accepted frame.
    std::mutex write_mutex;
    /// Cleared on read EOF or the first failed send; workers skip writing
    /// to dead sessions.
    std::atomic<bool> alive{true};
    std::atomic<bool> done{false};  // session thread finished (reaping)
  };

  struct Job {
    JobRequest request;
    std::shared_ptr<Session> session;
    Aig input;
    FlowParams params;         // base_params + request overrides, resolved
    Pipeline pipeline;         // built from the flow factory at admission
    std::atomic<bool> cancel{false};
    Timer admitted;            // deadline_s counts from admission
    std::uint64_t cache_key = 0;
    bool cache_eligible = false;
  };

  void listener_loop();
  void session_loop(std::shared_ptr<Session> session);
  void handle_message(const std::shared_ptr<Session>& session,
                      const Json& msg);
  void handle_submit(const std::shared_ptr<Session>& session, const Json& msg);
  void handle_cancel(const std::shared_ptr<Session>& session, const Json& msg);
  void worker_loop();
  /// Run one job on this worker's long-lived FlowContext (see worker_loop:
  /// reusing the context keeps the mapper workspaces' arenas warm across
  /// jobs).
  void process(std::shared_ptr<Job> job, FlowContext& ctx);
  void finish(const std::shared_ptr<Job>& job, const Json& frame);

  /// Write one frame under the session lock; a failure marks the session
  /// dead (and is otherwise swallowed — the job bookkeeping still runs).
  void send(const std::shared_ptr<Session>& session, const Json& frame);
  /// Same, with session->write_mutex already held by the caller.
  void send_locked(Session& session, const Json& frame);

  void register_job(const std::shared_ptr<Job>& job);
  void unregister_job(const Job& job);
  std::shared_ptr<Job> find_job(const Session& session, const std::string& id);
  void cancel_session_jobs(const Session& session);

  ServerConfig config_;
  std::unique_ptr<WarmCache> owned_cache_;
  WarmCache* cache_;

  std::map<std::string, FlowFactory> flows_;

  Socket listener_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  BoundedQueue<std::shared_ptr<Job>> queue_;
  // lint:allow(thread-in-library) the service's accept loop
  std::thread listener_thread_;
  // lint:allow(thread-in-library) ServerConfig::workers job workers
  std::vector<std::thread> worker_threads_;

  std::mutex sessions_mutex_;
  // lint:allow(thread-in-library) one reader per client connection
  std::vector<std::pair<std::shared_ptr<Session>, std::thread>> sessions_;

  /// In-flight jobs per (session, id) — the cancel path and the
  /// dead-session sweep look jobs up here.
  std::mutex jobs_mutex_;
  std::map<std::pair<const Session*, std::string>, std::shared_ptr<Job>>
      jobs_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  // stats (relaxed atomics; stats() snapshots)
  std::atomic<std::uint64_t> stat_sessions_{0};
  std::atomic<std::uint64_t> stat_accepted_{0};
  std::atomic<std::uint64_t> stat_completed_{0};
  std::atomic<std::uint64_t> stat_cancelled_{0};
  std::atomic<std::uint64_t> stat_failed_{0};
  std::atomic<std::uint64_t> stat_overloaded_{0};
  std::atomic<std::uint64_t> stat_malformed_{0};
  std::atomic<std::uint64_t> stat_cache_hits_{0};
};

}  // namespace emorphic::service
