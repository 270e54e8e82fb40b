// Wire protocol units: framing round-trips, corruption handling and TCP
// socket options (util/socket.hpp), JobRequest parsing, FlowParams
// overrides, and the params fingerprint.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <utility>
#include <stdexcept>
#include <thread>

#include "service/protocol.hpp"
#include "util/socket.hpp"

namespace emorphic::service {
namespace {

// --- framing ----------------------------------------------------------------

TEST(Framing, RoundTripsPayloads) {
  auto [a, b] = Socket::pair();
  for (const std::string payload :
       {std::string(""), std::string("{}"), std::string(4096, 'x')}) {
    write_frame(a, payload);
    std::string got;
    ASSERT_TRUE(read_frame(b, &got));
    EXPECT_EQ(got, payload);
  }
}

TEST(Framing, SequentialFramesStayAligned) {
  auto [a, b] = Socket::pair();
  write_frame(a, "first");
  write_frame(a, "second");
  write_frame(a, "third");
  std::string got;
  ASSERT_TRUE(read_frame(b, &got));
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(read_frame(b, &got));
  EXPECT_EQ(got, "second");
  ASSERT_TRUE(read_frame(b, &got));
  EXPECT_EQ(got, "third");
}

TEST(Framing, CleanEofReturnsFalse) {
  auto [a, b] = Socket::pair();
  a.close();
  std::string got;
  EXPECT_FALSE(read_frame(b, &got));
}

TEST(Framing, BadMagicThrows) {
  auto [a, b] = Socket::pair();
  const char junk[8] = {'N', 'O', 'P', 'E', 0, 0, 0, 0};
  a.write_all(junk, sizeof(junk));
  std::string got;
  EXPECT_THROW(read_frame(b, &got), std::runtime_error);
}

TEST(Framing, OversizedLengthThrows) {
  auto [a, b] = Socket::pair();
  // Length 1 GiB, little-endian on the wire: bytes 00 00 00 40.
  const char header[8] = {'E', 'M', 'S', '1', 0, 0, 0, 0x40};
  a.write_all(header, sizeof(header));
  std::string got;
  EXPECT_THROW(read_frame(b, &got, /*max_bytes=*/1 << 20),
               std::runtime_error);
}

TEST(Framing, TruncatedPayloadThrows) {
  auto [a, b] = Socket::pair();
  // Declare 100 bytes, deliver 3, hang up.
  char header[8] = {'E', 'M', 'S', '1', 100, 0, 0, 0};
  a.write_all(header, sizeof(header));
  a.write_all("abc", 3);
  a.close();
  std::string got;
  EXPECT_THROW(read_frame(b, &got), std::runtime_error);
}

// --- JobRequest -------------------------------------------------------------

TEST(Socket, TcpConnectionsDisableNagle) {
  // Small request/response frames must not wait out delayed ACKs: both
  // ends of a TCP connection run with TCP_NODELAY.
  std::uint16_t port = 0;
  Socket listener = Socket::listen_tcp_loopback(0, &port);
  Socket client = Socket::connect_tcp("127.0.0.1", port);
  Socket server = listener.accept();
  ASSERT_TRUE(server.valid());
  for (const Socket* end : {&client, &server}) {
    int value = 0;
    socklen_t len = sizeof(value);
    ASSERT_EQ(::getsockopt(end->fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len),
              0);
    EXPECT_EQ(value, 1) << (end == &client ? "client" : "server");
  }
}

TEST(JobRequest, RoundTripsThroughJson) {
  JobRequest req;
  req.id = "job-42";
  req.format = "eqn";
  req.circuit = "INORDER = a b; OUTORDER = y; y = a & b;";
  req.flow = "baseline";
  req.seed = 99;
  req.deadline_s = 2.5;
  req.return_circuit = true;
  req.progress = true;
  req.params = Json::object();
  req.params["rounds"] = 3;

  JobRequest back = JobRequest::from_json(req.to_json());
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.format, req.format);
  EXPECT_EQ(back.circuit, req.circuit);
  EXPECT_EQ(back.flow, req.flow);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_DOUBLE_EQ(back.deadline_s, req.deadline_s);
  EXPECT_TRUE(back.return_circuit);
  EXPECT_TRUE(back.progress);
  EXPECT_EQ(back.params.dump(), req.params.dump());
}

TEST(JobRequest, RejectsMissingOrIllTypedFields) {
  auto parse = [](const char* text) {
    return JobRequest::from_json(Json::parse(text));
  };
  // Missing id / circuit.
  EXPECT_THROW(parse(R"({"type":"submit","circuit":"aag 0 0 0 0 0"})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"type":"submit","id":"j"})"),
               std::invalid_argument);
  // Ill-typed fields.
  EXPECT_THROW(parse(R"({"type":"submit","id":7,"circuit":"x"})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"type":"submit","id":"j","circuit":"x","seed":"one"})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"type":"submit","id":"j","circuit":"x","deadline_s":-1})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"type":"submit","id":"j","circuit":"x","format":"blif"})"),
      std::invalid_argument);
  // Unknown keys are protocol errors, not silently ignored.
  EXPECT_THROW(
      parse(R"({"type":"submit","id":"j","circuit":"x","bogus":1})"),
      std::invalid_argument);
}

TEST(JobRequest, RejectsSeedsOutsideTheIntegerRange) {
  auto parse_seed = [](const char* seed) {
    return JobRequest::from_json(Json::parse(
        std::string(R"({"type":"submit","id":"j","circuit":"x","seed":)") +
        seed + "}"));
  };
  EXPECT_EQ(parse_seed("9007199254740992").seed, 9007199254740992ull);
  // Negative, non-integral and beyond-uint64 seeds: each cast would be
  // undefined behavior, so each is a typed error naming the field.
  for (const char* seed : {"-1", "2.5", "1e30", "18446744073709551616"}) {
    try {
      (void)parse_seed(seed);
      ADD_FAILURE() << "seed " << seed << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
          << e.what();
    }
  }
}

// --- FlowParams overrides ---------------------------------------------------

TEST(ApplyFlowParams, AppliesEveryDocumentedKey) {
  Json overrides = Json::parse(R"({
    "rounds": 3, "area_weight": 0.25, "verify": false,
    "fraig_post": true, "lut_size": 4, "window_size": 512, "paranoia": true,
    "sa": {"iterations": 7, "moves_per_iteration": 5, "num_threads": 3,
           "initial_temperature": 500.0},
    "rewrite": {"max_iterations": 9, "max_enodes": 1234,
                "time_limit_s": 1.5, "match_threads": 2},
    "mapping": {"cut_size": 3, "num_cuts": 6, "area_recovery": false}
  })");
  FlowParams params;
  apply_flow_params(&params, overrides);
  EXPECT_EQ(params.rounds, 3u);
  EXPECT_DOUBLE_EQ(params.area_weight, 0.25);
  EXPECT_FALSE(params.verify);
  EXPECT_TRUE(params.fraig_post);
  EXPECT_EQ(params.lut_size, 4u);
  EXPECT_EQ(params.window_size, 512u);
  EXPECT_TRUE(params.paranoia);
  EXPECT_EQ(params.sa.iterations, 7u);
  EXPECT_EQ(params.sa.moves_per_iteration, 5u);
  EXPECT_EQ(params.sa.num_threads, 3u);
  EXPECT_DOUBLE_EQ(params.sa.initial_temperature, 500.0);
  EXPECT_EQ(params.rewrite.max_iterations, 9u);
  EXPECT_EQ(params.rewrite.max_enodes, 1234u);
  EXPECT_DOUBLE_EQ(params.rewrite.time_limit_s, 1.5);
  EXPECT_EQ(params.rewrite.match_threads, 2u);
  EXPECT_EQ(params.mapping.cut_size, 3u);
  EXPECT_EQ(params.mapping.num_cuts, 6u);
  EXPECT_FALSE(params.mapping.area_recovery);
}

TEST(ApplyFlowParams, RejectsUnknownAndIllTypedKeys) {
  FlowParams params;
  Json unknown = Json::parse(R"({"bogus": 1})");
  EXPECT_THROW(apply_flow_params(&params, unknown), std::invalid_argument);
  // Stage lists are chosen by flow (recipe) name, not by flags.
  for (const char* flag : {"fraig_pre", "use_choicemap", "use_lutmap",
                           "partition"}) {
    Json removed = Json::object();
    removed[flag] = true;
    EXPECT_THROW(apply_flow_params(&params, removed), std::invalid_argument)
        << flag;
  }
  Json nested = Json::parse(R"({"sa": {"bogus": 1}})");
  EXPECT_THROW(apply_flow_params(&params, nested), std::invalid_argument);
  Json ill_typed = Json::parse(R"({"rounds": "many"})");
  EXPECT_THROW(apply_flow_params(&params, ill_typed), std::invalid_argument);
  Json negative = Json::parse(R"({"rounds": -2})");
  EXPECT_THROW(apply_flow_params(&params, negative), std::invalid_argument);
  Json not_object = Json::parse(R"({"sa": 3})");
  EXPECT_THROW(apply_flow_params(&params, not_object), std::invalid_argument);
}

TEST(ApplyFlowParams, RejectsNumbersTheFieldTypeCannotHold) {
  // {override, field named in the error}: non-integral, negative and
  // above-maximum values for integer fields of several widths, mapping
  // settings outside map_to_cells' range, and thread counts above the
  // service's cap (these must die at submit, not as an internal error or
  // an exhausted server mid-flow).
  const std::pair<const char*, const char*> cases[] = {
      {R"({"rounds": 2.5})", "'rounds'"},
      {R"({"rounds": -1})", "'rounds'"},
      {R"({"rounds": 1e20})", "'rounds'"},
      {R"({"window_size": 4294967296})", "'window_size'"},
      {R"({"lut_size": 4.5})", "'lut_size'"},
      {R"({"sa": {"iterations": 1e20}})", "'sa.iterations'"},
      {R"({"rewrite": {"max_enodes": 1e30}})", "'rewrite.max_enodes'"},
      {R"({"mapping": {"num_cuts": 0.5}})", "'mapping.num_cuts'"},
      {R"({"mapping": {"num_cuts": 0}})", "'mapping.num_cuts'"},
      {R"({"mapping": {"cut_size": 7}})", "'mapping.cut_size'"},
      {R"({"mapping": {"cut_size": 5}})", "'mapping.cut_size'"},
      {R"({"mapping": {"cut_size": 1}})", "'mapping.cut_size'"},
      {R"({"sa": {"num_threads": 65}})", "'sa.num_threads'"},
      {R"({"sa": {"num_threads": 4294967295}})", "'sa.num_threads'"},
      {R"({"rewrite": {"match_threads": 65}})", "'rewrite.match_threads'"},
      {R"({"rewrite": {"match_threads": 1e6}})", "'rewrite.match_threads'"},
  };
  for (const auto& [text, field] : cases) {
    FlowParams params;
    try {
      apply_flow_params(&params, Json::parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  // Values up to the field type's maximum still pass.
  FlowParams params;
  apply_flow_params(&params, Json::parse(R"({"rounds": 4294967295,
      "rewrite": {"max_enodes": 1e12},
      "mapping": {"cut_size": 4, "num_cuts": 1},
      "sa": {"num_threads": 64}})"));
  EXPECT_EQ(params.rounds, 4294967295u);
  EXPECT_EQ(params.rewrite.max_enodes, 1000000000000u);
  EXPECT_EQ(params.mapping.cut_size, 4u);
  EXPECT_EQ(params.mapping.num_cuts, 1u);
  EXPECT_EQ(params.sa.num_threads, 64u);
}

TEST(ApplyFlowParams, ValidatesPartitionKeys) {
  FlowParams params;
  Json zero = Json::parse(R"({"window_size": 0})");
  EXPECT_THROW(apply_flow_params(&params, zero), std::invalid_argument);
  Json ill_typed = Json::parse(R"({"partition": 1})");
  EXPECT_THROW(apply_flow_params(&params, ill_typed), std::invalid_argument);
  // checkpoint_path is deliberately not a protocol key: clients must not
  // name server-side filesystem paths.
  Json path = Json::parse(R"({"checkpoint_path": "/tmp/x"})");
  EXPECT_THROW(apply_flow_params(&params, path), std::invalid_argument);
  EXPECT_TRUE(params.checkpoint_path.empty());
}

TEST(ParamsFingerprint, SeparatesFlowsAndOverrides) {
  Json empty = Json::object();
  Json rounds2 = Json::parse(R"({"rounds": 2})");
  Json rounds3 = Json::parse(R"({"rounds": 3})");
  EXPECT_EQ(params_fingerprint("emorphic", rounds2),
            params_fingerprint("emorphic", rounds2));
  EXPECT_NE(params_fingerprint("emorphic", rounds2),
            params_fingerprint("emorphic", rounds3));
  EXPECT_NE(params_fingerprint("emorphic", empty),
            params_fingerprint("baseline", empty));
}

TEST(ErrorCodes, HaveStableProtocolStrings) {
  EXPECT_STREQ(to_string(ErrorCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(to_string(ErrorCode::kMalformedRequest), "MALFORMED_REQUEST");
  EXPECT_STREQ(to_string(ErrorCode::kMalformedCircuit), "MALFORMED_CIRCUIT");
  EXPECT_STREQ(to_string(ErrorCode::kBadParams), "BAD_PARAMS");
  EXPECT_STREQ(to_string(ErrorCode::kUnknownFlow), "UNKNOWN_FLOW");
  EXPECT_STREQ(to_string(ErrorCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(to_string(ErrorCode::kInternal), "INTERNAL");
}

}  // namespace
}  // namespace emorphic::service
