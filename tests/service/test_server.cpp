// SynthServer end-to-end: jobs over real sockets, plus the abuse suite the
// ISSUE demands — malformed input, mid-flight cancellation, deadline
// expiry, queue-full rejection — all answered with typed errors while the
// server keeps serving, and a drain-on-shutdown check.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "cec/cec.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace emorphic::service {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  return params;
}

/// A stage that spins politely until a stop signal fires (or a generous
/// cap, so a broken signal path cannot hang the suite). Two of these in a
/// row make cancellation/deadline behavior deterministic to test: stopping
/// during the first skips the second -> FlowResult::cancelled.
class SlowStage : public Stage {
 public:
  const char* name() const override { return "SlowTest"; }
  void run(FlowContext& ctx) const override {
    for (int i = 0; i < 5000; ++i) {
      if (ctx.should_stop()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
};

Pipeline slow_pipeline(const FlowParams&) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<SlowStage>());
  pipeline.add(std::make_unique<SlowStage>());
  return pipeline;
}

/// A deliberately wrong "optimization": complements PO 0.
class BreakFirstOutputStage : public Stage {
 public:
  const char* name() const override { return "BreakFirstOutputTest"; }
  void run(FlowContext& ctx) const override {
    ctx.current.set_po(0, lit_not(ctx.current.po(0)));
  }
};

/// A flow whose result its own Cec stage refutes.
Pipeline refuted_pipeline(const FlowParams&) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<BreakFirstOutputStage>());
  pipeline.add("Cec");
  return pipeline;
}

/// Server + client over an ephemeral loopback TCP port (no socket files to
/// clean up, works in any sandbox that allows loopback).
struct ServerFixture {
  explicit ServerFixture(unsigned workers = 2, std::size_t queue = 16) {
    config.workers = workers;
    config.queue_capacity = queue;
    config.base_params = quick_params();
    server = std::make_unique<SynthServer>(config);
    server->add_flow("slowtest", slow_pipeline);
    server->add_flow("refutedtest", refuted_pipeline);
    server->start();
  }
  SynthClient connect() {
    return SynthClient::connect_tcp("127.0.0.1", server->tcp_port());
  }
  ServerConfig config;
  std::unique_ptr<SynthServer> server;
};

JobRequest adder_request(const std::string& id, std::uint64_t seed = 1) {
  JobRequest req;
  req.id = id;
  req.circuit = write_aiger(make_adder(6));
  req.seed = seed;
  return req;
}

JobRequest slow_request(const std::string& id) {
  JobRequest req = adder_request(id);
  req.flow = "slowtest";
  return req;
}

TEST(SynthServer, CompletesAJobAndServesRepeatsFromCache) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  JobRequest req = adder_request("job-1");
  req.return_circuit = true;
  Json verdict = client.submit(req);
  ASSERT_EQ(verdict.at("type").as_string(), "accepted");
  Json result = client.await("job-1");
  ASSERT_EQ(result.at("type").as_string(), "result");
  EXPECT_EQ(result.at("stop_reason").as_string(), "none");
  EXPECT_GT(result.at("qor").at("area").as_number(), 0.0);
  EXPECT_FALSE(result.at("cache_hit").as_bool());
  // The optimized circuit comes back as parseable AIGER.
  EXPECT_NO_THROW(read_aiger(result.at("circuit").as_string()));

  // Same circuit, seed, params -> flow-result cache answers.
  JobRequest repeat = adder_request("job-2");
  ASSERT_EQ(client.submit(repeat).at("type").as_string(), "accepted");
  Json cached = client.await("job-2");
  ASSERT_EQ(cached.at("type").as_string(), "result");
  EXPECT_TRUE(cached.at("cache_hit").as_bool());
  EXPECT_EQ(cached.at("qor").at("area").as_number(),
            result.at("qor").at("area").as_number());

  // A different seed is a different flow — no stale cache hit.
  JobRequest reseeded = adder_request("job-3", /*seed=*/9);
  ASSERT_EQ(client.submit(reseeded).at("type").as_string(), "accepted");
  Json fresh = client.await("job-3");
  ASSERT_EQ(fresh.at("type").as_string(), "result");
  EXPECT_FALSE(fresh.at("cache_hit").as_bool());

  EXPECT_EQ(fx.server->stats().result_cache_hits, 1u);
}

double median_ms(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

TEST(SynthServer, ServesOneShotQorProvenAndWarmRepeatsFromCache) {
  // Serving through the warm substrate must not change answers: each served
  // QoR bit-equals a one-shot Pipeline run, and each served circuit is
  // proven equivalent. Repeats are result-cache hits, faster than cold.
  ServerFixture fx;
  SynthClient client = fx.connect();
  auto serve = [&](const Aig& aig, const std::string& id,
                   std::vector<double>* ms) {
    JobRequest req;
    req.id = id;
    req.circuit = write_aiger(aig);
    req.seed = 1;
    req.return_circuit = true;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(client.submit(req).at("type").as_string(), "accepted");
    Json result = client.await(id);
    ms->push_back(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
    EXPECT_EQ(result.at("type").as_string(), "result") << id;
    return result;
  };

  Aig circuits[] = {make_adder(8), make_arbiter(6), make_square(6)};
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "circuit-" + std::to_string(i);
    Json served = serve(circuits[i], name, &cold_ms);
    EXPECT_FALSE(served.at("cache_hit").as_bool()) << name;

    FlowContext ctx;
    ctx.params = fx.config.base_params;
    ctx.input = circuits[i];
    ctx.seed = 1;
    FlowQor local = Pipeline::emorphic(ctx.params).run(ctx).qor;
    const Json& qor = served.at("qor");
    EXPECT_EQ(qor.at("area").as_number(), local.area) << name;
    EXPECT_EQ(qor.at("delay").as_number(), local.delay) << name;
    EXPECT_EQ(qor.at("lev").as_int(), static_cast<std::int64_t>(local.lev))
        << name;
    EXPECT_EQ(cec(circuits[i], read_aiger(served.at("circuit").as_string()))
                  .status,
              CecStatus::kEquivalent)
        << name;
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      const std::string id =
          "warm-" + std::to_string(round) + "-" + std::to_string(i);
      EXPECT_TRUE(serve(circuits[i], id, &warm_ms).at("cache_hit").as_bool())
          << id;
    }
  }
  EXPECT_EQ(fx.server->stats().result_cache_hits, warm_ms.size());
  EXPECT_LT(median_ms(warm_ms), median_ms(cold_ms));
}

TEST(SynthServer, NeverCachesARefutedResult) {
  // A refuted result is reported, but must not be served again from the
  // flow-result cache as if it were an answer.
  ServerFixture fx;
  SynthClient client = fx.connect();
  for (const char* id : {"refuted-1", "refuted-2"}) {
    JobRequest req = adder_request(id);
    req.flow = "refutedtest";
    req.params["verify"] = true;  // the fixture's base params skip Cec
    ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
    Json result = client.await(id);
    ASSERT_EQ(result.at("type").as_string(), "result");
    EXPECT_EQ(result.at("verify").as_string(), "NOT-equivalent") << id;
    EXPECT_FALSE(result.at("cache_hit").as_bool()) << id;
  }
  EXPECT_EQ(fx.server->stats().result_cache_hits, 0u);
}

TEST(SynthServer, LutRecipeSelectsTheLutBackendWithItsOwnCacheKey) {
  // The LUT recipe travels the whole protocol path: the flow name selects
  // the LUT backend, and flow name and overrides are both part of the cache
  // fingerprint, so a LUT-mapped job can never alias a cell-mapped job in
  // the warm cache.
  ServerFixture fx;
  SynthClient client = fx.connect();

  // Cell-mapped emorphic primes the cache.
  ASSERT_EQ(client.submit(adder_request("cell-1")).at("type").as_string(),
            "accepted");
  Json cell = client.await("cell-1");
  ASSERT_EQ(cell.at("type").as_string(), "result");
  EXPECT_FALSE(cell.at("cache_hit").as_bool());

  // Same circuit + seed through the LUT backend: distinct key, no alias.
  auto lut_request = [](const std::string& id, int k) {
    JobRequest req = adder_request(id);
    req.flow = "emorphic-lut";
    req.params["lut_size"] = k;
    return req;
  };
  ASSERT_EQ(client.submit(lut_request("lut-1", 4)).at("type").as_string(),
            "accepted");
  Json lut_result = client.await("lut-1");
  ASSERT_EQ(lut_result.at("type").as_string(), "result");
  EXPECT_FALSE(lut_result.at("cache_hit").as_bool());
  // Unit-cost QoR: area is the LUT count, delay the LUT depth.
  EXPECT_GT(lut_result.at("qor").at("area").as_number(), 0.0);
  EXPECT_GT(lut_result.at("qor").at("delay").as_number(), 0.0);

  // An identical LUT submission is a cache hit.
  ASSERT_EQ(client.submit(lut_request("lut-2", 4)).at("type").as_string(),
            "accepted");
  Json cached = client.await("lut-2");
  ASSERT_EQ(cached.at("type").as_string(), "result");
  EXPECT_TRUE(cached.at("cache_hit").as_bool());
  EXPECT_EQ(cached.at("qor").at("area").as_number(),
            lut_result.at("qor").at("area").as_number());

  // A different K is again its own cache entry.
  ASSERT_EQ(client.submit(lut_request("lut-3", 6)).at("type").as_string(),
            "accepted");
  EXPECT_FALSE(client.await("lut-3").at("cache_hit").as_bool());

  EXPECT_EQ(fx.server->stats().result_cache_hits, 1u);
}

TEST(SynthServer, LutParamAbuseGetsTypedBadParams) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  // lut_size outside the backend's [2, kMaxCutSize] contract — rejected at
  // submit time, before any flow runs.
  for (int bad : {1, 9}) {
    JobRequest req = adder_request("bad-k-" + std::to_string(bad));
    req.flow = "emorphic-lut";
    req.params["lut_size"] = bad;
    EXPECT_EQ(client.submit(req).at("code").as_string(), "BAD_PARAMS")
        << "lut_size=" << bad;
  }

  // Ill-typed values die the same way.
  JobRequest bad_num = adder_request("bad-num");
  bad_num.flow = "emorphic-lut";
  bad_num.params["lut_size"] = "six";
  EXPECT_EQ(client.submit(bad_num).at("code").as_string(), "BAD_PARAMS");

  // The flags that once chose the stage list are unknown keys now: the
  // flow name is the recipe.
  JobRequest flag = adder_request("flag");
  flag.params["use_lutmap"] = true;
  EXPECT_EQ(client.submit(flag).at("code").as_string(), "BAD_PARAMS");

  // The server still serves real LUT work afterwards.
  JobRequest ok = adder_request("ok");
  ok.flow = "emorphic-lut";
  ASSERT_EQ(client.submit(ok).at("type").as_string(), "accepted");
  EXPECT_EQ(client.await("ok").at("type").as_string(), "result");
}

TEST(SynthServer, KeysTheFlowNeverReadsGetBadParams) {
  // window_size and fraig_post are read only by a "partition" stage and
  // lut_size only by a LUT mapping stage: on any other flow they would
  // change nothing but the result-cache key, so admission refuses them.
  ServerFixture fx;
  SynthClient client = fx.connect();
  struct Case {
    const char* flow;
    const char* key;
    Json value;
  };
  const Case refused[] = {{"emorphic", "window_size", Json(512)},
                          {"emorphic", "fraig_post", Json(true)},
                          {"emorphic", "lut_size", Json(4)},
                          {"partition", "lut_size", Json(4)},
                          {"baseline-lut", "window_size", Json(64)},
                          {"slowtest", "window_size", Json(64)}};
  for (const Case& c : refused) {
    JobRequest req = adder_request(std::string("refused-") + c.flow);
    req.flow = c.flow;
    req.params[c.key] = c.value;
    Json error = client.submit(req);
    ASSERT_EQ(error.at("code").as_string(), "BAD_PARAMS") << c.flow;
    const std::string message = error.at("message").as_string();
    EXPECT_NE(message.find(c.key), std::string::npos) << message;
    EXPECT_NE(message.find(c.flow), std::string::npos) << message;
  }

  // The flows that read them still serve them.
  JobRequest windows = adder_request("windows");
  windows.flow = "partition";
  windows.params["window_size"] = 16;
  windows.params["fraig_post"] = true;
  JobRequest luts = adder_request("luts");
  luts.flow = "emorphic-lut";
  luts.params["lut_size"] = 4;
  for (const JobRequest& req : {windows, luts}) {
    ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted")
        << req.flow;
    EXPECT_EQ(client.await(req.id).at("type").as_string(), "result")
        << req.flow;
  }
}

TEST(SynthServer, StreamsProgressEvents) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  JobRequest req = adder_request("job-1");
  req.progress = true;
  ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
  int progress_frames = 0;
  Json result = client.await("job-1", [&](const Json& event) {
    if (event.at("type").as_string() == "progress") ++progress_frames;
  });
  EXPECT_EQ(result.at("type").as_string(), "result");
  // The emorphic pipeline has several stages; each emits begin + end.
  EXPECT_GE(progress_frames, 4);
}

TEST(SynthServer, RejectsMalformedTrafficAndKeepsServing) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  // Not JSON at all.
  client.send(Json("this is not an object"));
  Json error;
  ASSERT_TRUE(client.recv(&error));
  EXPECT_EQ(error.at("type").as_string(), "error");
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");

  // Unknown message type.
  Json bogus = Json::object();
  bogus["type"] = "frobnicate";
  client.send(bogus);
  ASSERT_TRUE(client.recv(&error));
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");

  // Truncated AIGER — parse errors become typed rejections, not crashes.
  JobRequest bad_circuit = adder_request("job-bad");
  bad_circuit.circuit = "aag 7 2 0";
  EXPECT_EQ(client.submit(bad_circuit).at("code").as_string(),
            "MALFORMED_CIRCUIT");

  // Unknown params key.
  JobRequest bad_params = adder_request("job-params");
  bad_params.params["warp_factor"] = 9;
  EXPECT_EQ(client.submit(bad_params).at("code").as_string(), "BAD_PARAMS");

  // Unknown flow: the reply lists every registered flow, each recipe and
  // the fixture's own test flows included.
  JobRequest bad_flow = adder_request("job-flow");
  bad_flow.flow = "no-such-flow";
  Json unknown = client.submit(bad_flow);
  EXPECT_EQ(unknown.at("code").as_string(), "UNKNOWN_FLOW");
  const std::string listing = unknown.at("message").as_string();
  std::vector<std::string> flows = recipe_names();
  flows.insert(flows.end(), {"slowtest", "refutedtest"});
  for (const std::string& flow : flows) {
    EXPECT_NE(listing.find(flow), std::string::npos) << listing;
  }

  // After all that abuse the server still completes real work.
  ASSERT_EQ(client.submit(adder_request("job-ok")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-ok").at("type").as_string(), "result");
  EXPECT_GE(fx.server->stats().rejected_malformed, 5u);
}

TEST(SynthServer, GarbageBytesGetTypedErrorThenDisconnect) {
  ServerFixture fx;
  // Raw socket speaking the wrong protocol entirely.
  Socket raw = Socket::connect_tcp("127.0.0.1", fx.server->tcp_port());
  raw.write_all("GET / HTTP/1.1\r\n\r\n", 18);
  std::string payload;
  // The server answers with one typed error frame, then hangs up.
  EXPECT_TRUE(read_frame(raw, &payload));
  Json error = Json::parse(payload);
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");
  EXPECT_FALSE(read_frame(raw, &payload));

  // And an untouched client still gets service.
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(adder_request("job-1")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-1").at("type").as_string(), "result");
}

TEST(SynthServer, CancelsMidFlight) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(slow_request("job-slow")).at("type").as_string(),
            "accepted");
  // Give the worker a moment to actually start the flow, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.cancel("job-slow");
  Json terminal = client.await("job-slow");
  ASSERT_EQ(terminal.at("type").as_string(), "cancelled");
  EXPECT_EQ(terminal.at("reason").as_string(), "cancelled");
  EXPECT_EQ(fx.server->stats().jobs_cancelled, 1u);
}

TEST(SynthServer, DeadlineExpiryIsReportedAsDeadline) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  JobRequest req = slow_request("job-deadline");
  req.deadline_s = 0.2;
  ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
  Json terminal = client.await("job-deadline");
  ASSERT_EQ(terminal.at("type").as_string(), "cancelled");
  EXPECT_EQ(terminal.at("reason").as_string(), "deadline");
}

TEST(SynthServer, CancelOfUnknownJobIsAcknowledgedNotFatal) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  client.cancel("never-submitted");
  Json ack;
  ASSERT_TRUE(client.recv(&ack));
  EXPECT_EQ(ack.at("type").as_string(), "cancel_ack");
  EXPECT_FALSE(ack.at("found").as_bool());
}

TEST(SynthServer, OverloadRejectsWithTypedErrorAndRecovers) {
  // One worker, queue of one: the third concurrent slow job cannot fit.
  ServerFixture fx(/*workers=*/1, /*queue=*/1);
  SynthClient client = fx.connect();

  ASSERT_EQ(client.submit(slow_request("slow-1")).at("type").as_string(),
            "accepted");
  // Wait until the worker has dequeued slow-1, freeing the queue slot for
  // slow-2 deterministically.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(client.submit(slow_request("slow-2")).at("type").as_string(),
            "accepted");

  Json verdict = client.submit(slow_request("slow-3"));
  ASSERT_EQ(verdict.at("type").as_string(), "error");
  EXPECT_EQ(verdict.at("code").as_string(), "OVERLOADED");
  EXPECT_GE(fx.server->stats().rejected_overloaded, 1u);

  // Clear the decks: cancel the in-flight jobs...
  client.cancel("slow-1");
  client.cancel("slow-2");
  EXPECT_EQ(client.await("slow-1").at("type").as_string(), "cancelled");
  EXPECT_EQ(client.await("slow-2").at("type").as_string(), "cancelled");

  // ...and the server accepts and completes new work.
  ASSERT_EQ(client.submit(adder_request("job-after")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-after").at("type").as_string(), "result");
}

TEST(SynthServer, DuplicateInFlightIdIsRejected) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(slow_request("dup")).at("type").as_string(),
            "accepted");
  Json verdict = client.submit(slow_request("dup"));
  ASSERT_EQ(verdict.at("type").as_string(), "error");
  EXPECT_EQ(verdict.at("code").as_string(), "MALFORMED_REQUEST");
  client.cancel("dup");
  EXPECT_EQ(client.await("dup").at("type").as_string(), "cancelled");
}

TEST(SynthServer, DisconnectedClientAutoCancelsItsJobs) {
  ServerFixture fx(/*workers=*/1);
  {
    SynthClient client = fx.connect();
    ASSERT_EQ(client.submit(slow_request("orphan")).at("type").as_string(),
              "accepted");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Client vanishes without cancelling.
  }
  // The server notices the dead session and frees the worker; a new client
  // gets served promptly instead of waiting out the slow job's cap.
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(adder_request("job-next")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-next").at("type").as_string(), "result");
}

TEST(SynthServer, StopDrainsAcceptedJobs) {
  ServerFixture fx(/*workers=*/1);
  SynthClient client = fx.connect();
  // Three quick jobs stack up behind a single worker.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(client
                  .submit(adder_request("drain-" + std::to_string(i),
                                        /*seed=*/static_cast<unsigned>(i)))
                  .at("type")
                  .as_string(),
              "accepted");
  }
  // Stop concurrently: every accepted job must still get its response.
  std::thread stopper([&] { fx.server->stop(); });
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(client.await("drain-" + std::to_string(i))
                  .at("type")
                  .as_string(),
              "result");
  }
  stopper.join();
  EXPECT_EQ(fx.server->stats().jobs_completed, 3u);
}

TEST(SynthServer, ShutdownMessageArmsTheWaiter) {
  ServerFixture fx;
  EXPECT_FALSE(fx.server->wait_for_shutdown_request(0.0));
  SynthClient client = fx.connect();
  client.shutdown_server();  // returns once the server acknowledged
  EXPECT_TRUE(fx.server->wait_for_shutdown_request(5.0));
  fx.server->stop();
  EXPECT_FALSE(fx.server->running());
}

TEST(SynthServer, ServesManyConcurrentClients) {
  ServerFixture fx(/*workers=*/4, /*queue=*/64);
  constexpr int kClients = 6;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SynthClient client = SynthClient::connect_tcp(
          "127.0.0.1", fx.server->tcp_port());
      std::string id = "client-" + std::to_string(c);
      ASSERT_EQ(client.submit(adder_request(id)).at("type").as_string(),
                "accepted");
      if (client.await(id).at("type").as_string() == "result") {
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load(), kClients);
  // All clients asked for the same (circuit, seed, params). Up to `workers`
  // of them can race past the cache before the first one inserts (each
  // computing the same deterministic answer), but with more jobs than
  // workers the overflow jobs are guaranteed to be answered warm.
  EXPECT_GE(fx.server->stats().result_cache_hits, 1u);
}

}  // namespace
}  // namespace emorphic::service
