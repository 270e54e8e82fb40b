// Command-line client for the synthesis daemon (examples/synthd.cpp).
//
//   $ synthcli --socket /tmp/synthd.sock submit --gen adder:8 --progress
//   $ synthcli --socket /tmp/synthd.sock submit --file circuit.aag
//   $ synthcli --socket /tmp/synthd.sock cancel-demo --gen mult:16
//   $ synthcli --socket /tmp/synthd.sock ping
//   $ synthcli --socket /tmp/synthd.sock shutdown
//
// Exit codes: 0 success (for cancel-demo, "the job was cancelled" IS the
// success); 2 the server rejected or failed the job (typed error frame);
// 3 the job was cancelled/deadline-expired (plain submit only).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "flow/pipeline.hpp"  // recipe_names()
#include "service/client.hpp"

using namespace emorphic;
using namespace emorphic::service;

namespace {

int usage(const char* argv0) {
  std::string recipes;
  for (const std::string& name : recipe_names()) {
    recipes += (recipes.empty() ? "" : ", ") + name;
  }
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --tcp-port PORT) COMMAND [options]\n"
      "commands:\n"
      "  submit       run one job and wait for its result\n"
      "  cancel-demo  submit, immediately cancel, expect 'cancelled'\n"
      "  ping         health check\n"
      "  shutdown     ask the daemon to drain and exit\n"
      "submit/cancel-demo options:\n"
      "  --gen NAME:BITS   generated circuit (adder, mult, square, arbiter)\n"
      "  --file PATH       circuit file (AIGER 'aag' or .eqn)\n"
      "  --flow NAME       flow to run (default emorphic); the daemon serves\n"
      "                    every recipe: %s\n"
      "  --seed N          per-job seed (default 1)\n"
      "  --deadline S      end-to-end deadline in seconds\n"
      "  --params JSON     FlowParams overrides, e.g. '{\"rounds\":2}'\n"
      "  --id ID           job id (default job-1)\n"
      "  --progress        stream per-stage progress\n"
      "  --return-circuit  print the optimized AIGER to stdout\n",
      argv0, recipes.c_str());
  return 2;
}

bool make_generated(const std::string& spec, std::string* aiger) {
  auto colon = spec.find(':');
  if (colon == std::string::npos) return false;
  const std::string name = spec.substr(0, colon);
  const unsigned bits =
      static_cast<unsigned>(std::atoi(spec.c_str() + colon + 1));
  if (bits == 0) return false;
  Aig aig;
  if (name == "adder") {
    aig = make_adder(bits);
  } else if (name == "mult" || name == "multiplier") {
    aig = make_multiplier(bits);
  } else if (name == "square") {
    aig = make_square(bits);
  } else if (name == "arbiter") {
    aig = make_arbiter(bits);
  } else {
    return false;
  }
  *aiger = write_aiger(aig);
  return true;
}

void print_event(const Json& msg) {
  std::fprintf(stderr, "  %s\n", msg.dump().c_str());
}

int report_terminal(const Json& frame, bool cancel_expected,
                    bool return_circuit) {
  const std::string& type = frame.at("type").as_string();
  if (type == "result") {
    const Json& qor = frame.at("qor");
    std::fprintf(stderr,
                 "result: area=%.2f delay=%.2f lev=%lld opt_s=%.3f "
                 "wall_s=%.3f verify=%s cache_hit=%s stop_reason=%s\n",
                 qor.at("area").as_number(), qor.at("delay").as_number(),
                 static_cast<long long>(qor.at("lev").as_int()),
                 qor.at("seconds").as_number(),
                 frame.at("wall_s").as_number(),
                 frame.at("verify").as_string().c_str(),
                 frame.at("cache_hit").as_bool() ? "yes" : "no",
                 frame.at("stop_reason").as_string().c_str());
    if (return_circuit && frame.contains("circuit")) {
      std::fputs(frame.at("circuit").as_string().c_str(), stdout);
    }
    return cancel_expected ? 3 : 0;
  }
  if (type == "cancelled") {
    std::fprintf(stderr, "cancelled: reason=%s\n",
                 frame.at("reason").as_string().c_str());
    return cancel_expected ? 0 : 3;
  }
  std::fprintf(stderr, "error: %s: %s\n",
               frame.at("code").as_string().c_str(),
               frame.at("message").as_string().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::uint16_t tcp_port = 0;
  std::string command;
  JobRequest request;
  request.id = "job-1";
  std::string gen_spec, file_path, params_json;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--socket") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      socket_path = v;
    } else if (std::strcmp(arg, "--tcp-port") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      tcp_port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (std::strcmp(arg, "--gen") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gen_spec = v;
    } else if (std::strcmp(arg, "--file") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      file_path = v;
    } else if (std::strcmp(arg, "--flow") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      request.flow = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      request.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (std::strcmp(arg, "--deadline") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      request.deadline_s = std::atof(v);
    } else if (std::strcmp(arg, "--params") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      params_json = v;
    } else if (std::strcmp(arg, "--id") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      request.id = v;
    } else if (std::strcmp(arg, "--progress") == 0) {
      request.progress = true;
    } else if (std::strcmp(arg, "--return-circuit") == 0) {
      request.return_circuit = true;
    } else if (arg[0] != '-' && command.empty()) {
      command = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (command.empty() || (socket_path.empty() && tcp_port == 0)) {
    return usage(argv[0]);
  }

  try {
    SynthClient client = socket_path.empty()
                             ? SynthClient::connect_tcp("127.0.0.1", tcp_port)
                             : SynthClient::connect_unix(socket_path);

    if (command == "ping") {
      if (!client.ping()) {
        std::fprintf(stderr, "ping: no answer\n");
        return 2;
      }
      std::fprintf(stderr, "pong\n");
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown_server();
      std::fprintf(stderr, "server is shutting down\n");
      return 0;
    }
    if (command != "submit" && command != "cancel-demo") {
      return usage(argv[0]);
    }

    if (!gen_spec.empty()) {
      if (!make_generated(gen_spec, &request.circuit)) {
        std::fprintf(stderr, "bad --gen spec '%s'\n", gen_spec.c_str());
        return 2;
      }
    } else if (!file_path.empty()) {
      std::ifstream in(file_path);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file_path.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      request.circuit = buffer.str();
      if (file_path.size() > 4 &&
          file_path.compare(file_path.size() - 4, 4, ".eqn") == 0) {
        request.format = "eqn";
      }
    } else {
      std::fprintf(stderr, "submit needs --gen or --file\n");
      return 2;
    }
    if (!params_json.empty()) request.params = Json::parse(params_json);

    const bool cancel_demo = command == "cancel-demo";
    Json verdict = client.submit(request);
    if (verdict.at("type").as_string() == "error") {
      return report_terminal(verdict, cancel_demo, false);
    }
    std::fprintf(stderr, "accepted: id=%s\n", request.id.c_str());
    if (cancel_demo) client.cancel(request.id);
    Json terminal = client.await(
        request.id, request.progress ? print_event
                                     : std::function<void(const Json&)>());
    return report_terminal(terminal, cancel_demo, request.return_circuit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synthcli: %s\n", e.what());
    return 2;
  }
}
