// E-morphic end-to-end benchmark: circuit in -> verified netlist out.
//
//   emorphic_bench --workload <epfl_emorphic|scale_partition|service_mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--state-dir <dir>] [--source-hash <hex>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). `failed` counts hard failures (errors, refusals,
// cancellations, wrong outputs); `failed_ratio` additionally counts
// outputs returned without an equivalence proof.
//
// With --state-dir, the run's QoR and exact counters are stored under
// <dir>/digests keyed by workload, seed and --source-hash; a later run with
// the same key (traced or not) must reproduce them exactly. Traced runs
// write <dir>/traces/<workload>-seed<n>.{trace,layers}.json.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

const std::map<std::string, std::function<RunReport(const Options&)>>
    kWorkloads = {
        {"epfl_emorphic", run_epfl_emorphic},
        {"scale_partition", run_scale_partition},
        {"service_mixed", run_service_mixed},
};

/// Every run reports exactly these names (see BENCHMARK.json).
const std::set<std::string> kEndToEnd = {
    "setup_s",      "flow_s",        "jobs_per_s", "failed_ratio",
    "area_geomean", "delay_geomean", "ands_after", "peak_rss_mb",
};
const std::set<std::string> kPerLayer = {
    "opt.resyn_s",
    "opt.partition_s",
    "opt.partition_cpu_per_wall",
    "opt.windows",
    "opt.windows_adopted",
    "opt.windows_rejected_qor",
    "opt.windows_rejected_cec",
    "flow.conversion_s",
    "flow.untimed_s",
    "flow.warm_qor_hit_ratio",
    "egraph.rewrite_s",
    "egraph.iterations",
    "egraph.matches",
    "egraph.applied",
    "egraph.applied_per_match",
    "egraph.enodes",
    "egraph.node_limit_stops",
    "extract.sa_s",
    "extract.sa_cpu_per_wall",
    "extract.evaluations",
    "extract.memo_hit_ratio",
    "mapper.eval_s",
    "mapper.eval_ms",
    "mapper.techmap_s",
    "cec.verify_s",
    "cec.proven",
    "cec.undecided",
    "cec.refuted",
    "service.admit_ms",
    "service.queue_ms",
    "service.result_cache_hits",
    "service.rejected",
    "run_p50_ms",
    "run_p90_ms",
    "hit_p50_ms",
    "benchgen.generate_s",
    "trace.flow_s",
    "trace.stage_coverage",
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "emorphic_bench: %s\nusage: emorphic_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>] "
               "[--source-hash <hex>]\n",
               why.c_str());
  std::exit(2);
}

/// Compare the run's exact text with the stored one for the same key, or
/// store it. Returns an error message, or "" when consistent.
std::string check_digest(const Options& options, const std::string& state_dir,
                         const std::string& source_hash,
                         const std::string& exact) {
  const fs::path dir = fs::path(state_dir) / "digests";
  fs::create_directories(dir);
  const fs::path file = dir / (options.workload + "-seed" +
                               std::to_string(options.seed) + "-" +
                               source_hash + ".txt");
  if (fs::exists(file)) {
    std::ifstream in(file);
    std::stringstream stored;
    stored << in.rdbuf();
    if (stored.str() != exact) {
      return "QoR or exact counters differ from an earlier run with the same "
             "seed (" + file.string() + ")";
    }
    return "";
  }
  const fs::path tmp = file.string() + ".tmp";
  std::ofstream(tmp) << exact;
  fs::rename(tmp, file);
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string state_dir;
  std::string source_hash = "nohash";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--state-dir") {
        state_dir = value;
      } else if (arg == "--source-hash") {
        source_hash = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end()) usage("unknown workload " + options.workload);
  if (!state_dir.empty()) {
    options.out_dir = (fs::path(state_dir) / "traces").string();
    fs::create_directories(options.out_dir);
  }

  RunReport report;
  try {
    report = workload->second(options);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("exception: ") + e.what());
  }
  if (report.errors.empty() && !state_dir.empty()) {
    std::string why = check_digest(options, state_dir, source_hash, report.exact);
    if (!why.empty()) report.errors.push_back(why);
  }
  if (report.errors.empty()) {
    const std::set<std::string>& expected = options.trace ? kPerLayer : kEndToEnd;
    std::set<std::string> got;
    for (const auto& [name, metric] : report.metrics) got.insert(name);
    if (got != expected) report.errors.push_back("metric set is incomplete");
  }

  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "emorphic_bench: %s\n", e.c_str());
  }
  emorphic::Json metrics = emorphic::Json::object();
  for (const auto& [name, metric] : report.metrics) {
    emorphic::Json m = emorphic::Json::object();
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metrics[name] = m;
  }
  emorphic::Json out = emorphic::Json::object();
  out["correct"] = report.errors.empty();
  out["attempted"] = report.failures.attempted;
  out["failed"] = report.failures.hard_failed;
  out["metrics"] = metrics;
  std::printf("%s\n", out.dump().c_str());
  return report.errors.empty() ? 0 : 1;
}
