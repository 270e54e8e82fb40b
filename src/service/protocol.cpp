#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "aig/cut.hpp"
#include "mapper/cell_library.hpp"

namespace emorphic::service {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument(message);
}

double expect_number(const Json& value, const std::string& key) {
  if (!value.is_number()) bad("field '" + key + "' must be a number");
  return value.as_number();
}

/// A JSON number as an unsigned T. Negative, non-integral and out-of-range
/// values are rejected: casting them would be undefined behavior.
template <typename T>
T expect_integer(const Json& value, const std::string& key) {
  double n = expect_number(value, key);
  if (n < 0) bad("field '" + key + "' must be non-negative");
  if (n != std::floor(n)) bad("field '" + key + "' must be an integer");
  // 2^digits, exact as a double, is the first value T cannot hold.
  if (n >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    bad("field '" + key + "' exceeds " +
        std::to_string(std::numeric_limits<T>::max()));
  }
  return static_cast<T>(n);
}

unsigned expect_unsigned(const Json& value, const std::string& key) {
  return expect_integer<unsigned>(value, key);
}

/// Upper bound on a request's thread counts (sa.num_threads,
/// rewrite.match_threads). Each thread brings its own scratch, so an
/// unbounded count would let one submit exhaust the server's memory or
/// process ids.
constexpr unsigned kMaxRequestThreads = 64;

unsigned expect_thread_count(const Json& value, const std::string& key) {
  const unsigned n = expect_unsigned(value, key);
  if (n > kMaxRequestThreads) {
    bad("field '" + key + "' must be <= " +
        std::to_string(kMaxRequestThreads));
  }
  return n;
}

bool expect_bool(const Json& value, const std::string& key) {
  if (value.type() != Json::Type::kBool) {
    bad("field '" + key + "' must be a boolean");
  }
  return value.as_bool();
}

std::string expect_string(const Json& value, const std::string& key) {
  if (!value.is_string()) bad("field '" + key + "' must be a string");
  return value.as_string();
}

/// FNV-1a over a byte string — stable across platforms, good enough to
/// fingerprint canonical JSON text.
std::uint64_t fnv1a(const std::string& text, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kMalformedRequest: return "MALFORMED_REQUEST";
    case ErrorCode::kMalformedCircuit: return "MALFORMED_CIRCUIT";
    case ErrorCode::kBadParams: return "BAD_PARAMS";
    case ErrorCode::kUnknownFlow: return "UNKNOWN_FLOW";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "INTERNAL";
}

Json JobRequest::to_json() const {
  Json msg = Json::object();
  msg["type"] = "submit";
  msg["id"] = id;
  msg["format"] = format;
  msg["circuit"] = circuit;
  msg["flow"] = flow;
  msg["seed"] = seed;
  msg["deadline_s"] = deadline_s;
  msg["return_circuit"] = return_circuit;
  msg["progress"] = progress;
  msg["params"] = params;
  return msg;
}

JobRequest JobRequest::from_json(const Json& msg) {
  if (!msg.is_object()) bad("submit message must be a JSON object");
  JobRequest req;
  bool saw_id = false, saw_circuit = false;
  for (const auto& [key, value] : msg.as_object()) {
    if (key == "type") {
      if (expect_string(value, key) != "submit") bad("not a submit message");
    } else if (key == "id") {
      req.id = expect_string(value, key);
      saw_id = true;
    } else if (key == "format") {
      req.format = expect_string(value, key);
      if (req.format != "aiger" && req.format != "eqn") {
        bad("field 'format' must be \"aiger\" or \"eqn\"");
      }
    } else if (key == "circuit") {
      req.circuit = expect_string(value, key);
      saw_circuit = true;
    } else if (key == "flow") {
      req.flow = expect_string(value, key);
    } else if (key == "seed") {
      req.seed = expect_integer<std::uint64_t>(value, key);
    } else if (key == "deadline_s") {
      req.deadline_s = expect_number(value, key);
      if (req.deadline_s < 0) bad("field 'deadline_s' must be non-negative");
    } else if (key == "return_circuit") {
      req.return_circuit = expect_bool(value, key);
    } else if (key == "progress") {
      req.progress = expect_bool(value, key);
    } else if (key == "params") {
      if (!value.is_object()) bad("field 'params' must be an object");
      req.params = value;
    } else {
      bad("unknown submit field '" + key + "'");
    }
  }
  if (!saw_id || req.id.empty()) bad("field 'id' is required and non-empty");
  if (!saw_circuit || req.circuit.empty()) {
    bad("field 'circuit' is required and non-empty");
  }
  return req;
}

void apply_flow_params(FlowParams* params, const Json& overrides) {
  if (!overrides.is_object()) {
    bad("params override must be a JSON object");
  }
  for (const auto& [key, value] : overrides.as_object()) {
    if (key == "rounds") {
      params->rounds = expect_unsigned(value, key);
    } else if (key == "area_weight") {
      params->area_weight = expect_number(value, key);
    } else if (key == "verify") {
      params->verify = expect_bool(value, key);
    } else if (key == "fraig_post") {
      params->fraig_post = expect_bool(value, key);
    } else if (key == "lut_size") {
      unsigned k = expect_unsigned(value, key);
      // Validated here so a bad request dies as a typed BAD_PARAMS at
      // submit time instead of an internal error mid-flow; the range is
      // map_to_luts' contract (mapper/lut_mapper.hpp).
      if (k < 2 || k > kMaxCutSize) {
        bad("field 'lut_size' must be in [2, " + std::to_string(kMaxCutSize) +
            "]");
      }
      params->lut_size = k;
    } else if (key == "window_size") {
      // For the "partition" flow. checkpoint_path is deliberately NOT
      // exposed: clients must not name server-side filesystem paths.
      unsigned w = expect_unsigned(value, key);
      if (w < 1) bad("field 'window_size' must be >= 1");
      params->window_size = w;
    } else if (key == "paranoia") {
      // Stage-boundary deep validation (FlowParams::paranoia): a client can
      // turn it on per job, e.g. when reducing a miscompare.
      params->paranoia = expect_bool(value, key);
    } else if (key == "sa") {
      if (!value.is_object()) bad("'sa' must be an object");
      for (const auto& [skey, sval] : value.as_object()) {
        const std::string path = "sa." + skey;
        if (skey == "iterations") {
          params->sa.iterations = expect_unsigned(sval, path);
        } else if (skey == "moves_per_iteration") {
          params->sa.moves_per_iteration = expect_unsigned(sval, path);
        } else if (skey == "num_threads") {
          params->sa.num_threads = expect_thread_count(sval, path);
        } else if (skey == "initial_temperature") {
          params->sa.initial_temperature = expect_number(sval, path);
        } else {
          bad("unknown params key '" + path + "'");
        }
      }
    } else if (key == "rewrite") {
      if (!value.is_object()) bad("'rewrite' must be an object");
      for (const auto& [rkey, rval] : value.as_object()) {
        const std::string path = "rewrite." + rkey;
        if (rkey == "max_iterations") {
          params->rewrite.max_iterations =
              expect_integer<std::size_t>(rval, path);
        } else if (rkey == "max_enodes") {
          params->rewrite.max_enodes =
              expect_integer<std::size_t>(rval, path);
        } else if (rkey == "time_limit_s") {
          params->rewrite.time_limit_s = expect_number(rval, path);
        } else if (rkey == "match_threads") {
          params->rewrite.match_threads = expect_thread_count(rval, path);
        } else {
          bad("unknown params key '" + path + "'");
        }
      }
    } else if (key == "mapping") {
      if (!value.is_object()) bad("'mapping' must be an object");
      for (const auto& [mkey, mval] : value.as_object()) {
        const std::string path = "mapping." + mkey;
        // Range-checked here like lut_size, against map_to_cells' contract
        // (mapper/tech_mapper.hpp), so a bad value is a BAD_PARAMS at
        // submit instead of an internal error mid-flow.
        if (mkey == "cut_size") {
          unsigned k = expect_unsigned(mval, path);
          if (k < 2 || k > kMaxCellPins) {
            bad("field '" + path + "' must be in [2, " +
                std::to_string(kMaxCellPins) + "]");
          }
          params->mapping.cut_size = k;
        } else if (mkey == "num_cuts") {
          unsigned c = expect_unsigned(mval, path);
          if (c < 1) bad("field '" + path + "' must be >= 1");
          params->mapping.num_cuts = c;
        } else if (mkey == "area_recovery") {
          params->mapping.area_recovery = expect_bool(mval, path);
        } else {
          bad("unknown params key '" + path + "'");
        }
      }
    } else {
      bad("unknown params key '" + key + "'");
    }
  }
}

std::uint64_t params_fingerprint(const std::string& flow,
                                 const Json& overrides) {
  std::uint64_t h = fnv1a(flow, 0);
  return fnv1a(overrides.dump(), h);
}

Json make_error(ErrorCode code, const std::string& message,
                const std::string& job_id) {
  Json msg = Json::object();
  msg["type"] = "error";
  msg["code"] = to_string(code);
  msg["message"] = message;
  if (!job_id.empty()) msg["id"] = job_id;
  return msg;
}

}  // namespace emorphic::service
