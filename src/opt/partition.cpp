#include "opt/partition.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "aig/aig_io.hpp"
#include "aig/signature.hpp"
#include "egraph/snapshot.hpp"
#include "flow/batch.hpp"
#include "flow/pipeline.hpp"
#include "util/rng.hpp"

namespace emorphic {

namespace {

/// Windows per checkpoint chunk. Fixed (never configuration-derived): the
/// chunk boundaries define the checkpoint record layout and the per-chunk
/// seed derivation, so changing this constant invalidates old checkpoints
/// (caught by the fingerprint, which folds it in).
constexpr std::size_t kChunkWindows = 16;

constexpr char kCheckpointMagic[4] = {'E', 'M', 'P', 'C'};
constexpr std::uint64_t kCheckpointVersion = 1;

// Window result status codes stored in checkpoint records.
constexpr std::uint8_t kRejectedQor = 0;
constexpr std::uint8_t kAdopted = 1;
constexpr std::uint8_t kRejectedCec = 2;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

/// Everything the recorded window results depend on: the circuit, the
/// decomposition, the seeds and the inner optimization effort. A checkpoint
/// whose fingerprint disagrees was taken under a different run and must not
/// be stitched into this one.
std::uint64_t checkpoint_fingerprint(const Aig& input,
                                     const PartitionParams& params,
                                     std::size_t num_windows) {
  std::uint64_t h = structural_signature(input);
  h = fold(h, params.window_size);
  h = fold(h, params.seed);
  h = fold(h, params.rewrite.max_iterations);
  h = fold(h, params.rewrite.max_enodes);
  h = fold(h, params.rewrite.max_matches_per_rule);
  h = fold(h, params.window_fraig ? 1 : 0);
  h = fold(h, params.window_cec.conflict_limit);
  h = fold(h, num_windows);
  h = fold(h, kChunkWindows);
  return h;
}

Pipeline make_window_pipeline(const PartitionParams& params) {
  Pipeline p;
  p.add(std::make_unique<EgraphConversionStage>());   // forward
  p.add(std::make_unique<RewriteStage>());
  p.add(std::make_unique<EgraphConversionStage>());   // backward (greedy)
  if (params.window_fraig) p.add(std::make_unique<FraigStage>());
  return p;
}

FlowParams make_window_params(const PartitionParams& params) {
  FlowParams inner;
  inner.rewrite = params.rewrite;
  // The windows are the parallelism; inner match threads would multiply
  // with the batch workers.
  inner.rewrite.match_threads = 1;
  inner.fraig = params.fraig;
  inner.verify = false;  // the per-window CEC gate below replaces it
  return inner;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string checkpoint_header(std::uint64_t fingerprint,
                              std::size_t num_windows) {
  SnapshotWriter w;
  w.magic(kCheckpointMagic);
  w.varint(kCheckpointVersion);
  w.varint(fingerprint);
  w.varint(num_windows);
  return w.take();
}

/// Parse an existing checkpoint file. Returns the number of complete chunk
/// records; fills status/adopted for the windows they cover. A torn tail is
/// truncated away (the file is rewritten to the valid prefix). A header
/// that does not match this run throws SnapshotError.
std::size_t load_checkpoint(const std::string& path, std::uint64_t fingerprint,
                            std::size_t num_windows,
                            std::vector<std::uint8_t>& status,
                            std::vector<Aig>& adopted) {
  std::string data = read_file(path);
  if (data.empty()) {
    write_checkpoint_file(path, checkpoint_header(fingerprint, num_windows));
    return 0;
  }
  SnapshotReader r(data);
  r.expect_magic(kCheckpointMagic, "partition checkpoint");
  std::uint64_t version = r.varint("version");
  if (version != kCheckpointVersion) {
    throw SnapshotError("unsupported partition checkpoint version " +
                        std::to_string(version));
  }
  if (r.varint("fingerprint") != fingerprint) {
    throw SnapshotError(
        "partition checkpoint was taken for a different circuit or "
        "configuration (fingerprint mismatch) — delete it to start over");
  }
  if (r.varint("window count") != num_windows) {
    throw SnapshotError("partition checkpoint window count mismatch");
  }

  const std::size_t num_chunks =
      num_windows == 0 ? 0 : (num_windows + kChunkWindows - 1) / kChunkWindows;
  std::size_t chunks = 0;
  std::size_t valid_prefix = data.size() - r.remaining();
  while (!r.at_end() && chunks < num_chunks) {
    // Parse one whole record into locals; commit only on success so a torn
    // tail never leaves half a chunk applied.
    std::vector<std::pair<std::size_t, std::uint8_t>> rec_status;
    std::vector<std::pair<std::size_t, Aig>> rec_adopted;
    try {
      if (r.varint("chunk index") != chunks) {
        throw SnapshotError("partition checkpoint chunks out of order");
      }
      std::size_t lo = chunks * kChunkWindows;
      std::size_t hi = std::min(lo + kChunkWindows, num_windows);
      if (r.varint("chunk window count") != hi - lo) {
        throw SnapshotError("partition checkpoint chunk size mismatch");
      }
      for (std::size_t i = lo; i < hi; ++i) {
        if (r.varint("window id") != i) {
          throw SnapshotError("partition checkpoint window ids out of order");
        }
        std::uint8_t s = r.u8("window status");
        if (s > kRejectedCec) {
          throw SnapshotError("partition checkpoint has unknown status code " +
                              std::to_string(s));
        }
        rec_status.emplace_back(i, s);
        if (s == kAdopted) {
          std::uint64_t len = r.varint("window byte length");
          rec_adopted.emplace_back(
              i, read_aiger_binary(r.bytes(len, "window circuit")));
        }
      }
    } catch (const std::runtime_error&) {
      break;  // torn tail: keep the chunks parsed so far
    }
    for (auto& [i, s] : rec_status) status[i] = s;
    for (auto& [i, aig] : rec_adopted) adopted[i] = std::move(aig);
    ++chunks;
    valid_prefix = data.size() - r.remaining();
  }
  if (valid_prefix < data.size()) {
    write_checkpoint_file(path, data.substr(0, valid_prefix));
  }
  return chunks;
}

}  // namespace

WindowAssignment assign_windows(const Aig& aig, std::uint32_t window_size) {
  if (window_size == 0) {
    throw std::invalid_argument("assign_windows: window_size must be >= 1");
  }
  WindowAssignment out;
  out.window_of.assign(aig.num_nodes(), kNoWindow);
  std::vector<std::uint32_t> fill;
  std::uint32_t last_open = kNoWindow;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    // Highest window among the AND fanins: joining it keeps fanin cones
    // together, and since fanin windows never exceed it, the fanin-window
    // <= fanout-window invariant holds for every choice below.
    std::uint32_t deepest = kNoWindow;
    for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
      std::uint32_t w = out.window_of[lit_var(f)];
      if (w != kNoWindow && (deepest == kNoWindow || w > deepest)) deepest = w;
    }
    std::uint32_t w;
    if (deepest != kNoWindow && fill[deepest] < window_size) {
      w = deepest;
    } else if (last_open != kNoWindow && fill[last_open] < window_size) {
      w = last_open;
    } else {
      w = static_cast<std::uint32_t>(fill.size());
      fill.push_back(0);
      last_open = w;
    }
    out.window_of[v] = w;
    ++fill[w];
  }
  out.num_windows = fill.size();
  return out;
}

std::vector<Window> build_windows(const Aig& aig,
                                  const WindowAssignment& assignment) {
  std::vector<Window> windows(assignment.num_windows);
  std::vector<char> escapes(aig.num_nodes(), 0);
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    std::uint32_t w = assignment.window_of[v];
    if (w == kNoWindow) continue;
    windows[w].members.push_back(v);
    for (Lit f : {aig.fanin0(v), aig.fanin1(v)}) {
      Var fv = lit_var(f);
      std::uint32_t fw = assignment.window_of[fv];
      if (fv != 0 && fw != w) windows[w].inputs.push_back(fv);
      if (fw != kNoWindow && fw != w) escapes[fv] = 1;
    }
  }
  for (Lit po : aig.pos()) {
    Var pv = lit_var(po);
    if (assignment.window_of[pv] != kNoWindow) escapes[pv] = 1;
  }
  for (Window& w : windows) {
    std::sort(w.inputs.begin(), w.inputs.end());
    w.inputs.erase(std::unique(w.inputs.begin(), w.inputs.end()),
                   w.inputs.end());
    for (Var v : w.members) {
      if (escapes[v]) w.outputs.push_back(v);  // members ascending already
    }
  }
  return windows;
}

Aig extract_window(const Aig& aig, const Window& window) {
  Aig sub;
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  for (Var in : window.inputs) {
    map[in] = make_lit(sub.add_pi("v" + std::to_string(in)));
  }
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v : window.members) {
    map[v] = sub.make_and(translate(aig.fanin0(v)), translate(aig.fanin1(v)));
  }
  for (Var out : window.outputs) {
    sub.add_po(map[out], "v" + std::to_string(out));
  }
  return sub;
}

namespace {

/// Rebuild the full circuit from per-window results, windows ascending.
/// Rebuild-stitching (rather than Aig::substitute) because an optimized
/// window may introduce variables numerically above the nodes it replaces,
/// which substitute's strictly-smaller contract forbids; rebuilding into a
/// fresh AIG sidesteps the constraint and strashes across window seams for
/// free.
Aig stitch(const Aig& input, const std::vector<Window>& windows,
           const std::vector<std::uint8_t>& status,
           const std::vector<Aig>& adopted) {
  Aig out = Aig::like(input);
  std::vector<Lit> map(input.num_nodes(), kLitFalse);
  for (std::size_t i = 0; i < input.pis().size(); ++i) {
    map[input.pis()[i]] = make_lit(out.pis()[i]);
  }
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (status[w] == kAdopted) {
      const Aig& sub = adopted[w];
      std::vector<Lit> smap(sub.num_nodes(), kLitFalse);
      for (std::size_t j = 0; j < windows[w].inputs.size(); ++j) {
        smap[sub.pis()[j]] = map[windows[w].inputs[j]];
      }
      auto sub_translate = [&smap](Lit l) {
        return lit_notcond(smap[lit_var(l)], lit_is_compl(l));
      };
      for (Var v = 1; v < sub.num_nodes(); ++v) {
        if (!sub.is_and(v)) continue;
        smap[v] = out.make_and(sub_translate(sub.fanin0(v)),
                               sub_translate(sub.fanin1(v)));
      }
      for (std::size_t j = 0; j < windows[w].outputs.size(); ++j) {
        map[windows[w].outputs[j]] = sub_translate(sub.po(j));
      }
    } else {
      for (Var v : windows[w].members) {
        map[v] = out.make_and(translate(input.fanin0(v)),
                              translate(input.fanin1(v)));
      }
    }
  }
  for (std::uint32_t i = 0; i < input.num_pos(); ++i) {
    out.set_po(i, translate(input.po(i)));
  }
  return out;
}

}  // namespace

PartitionResult partition_optimize(const Aig& input,
                                   const PartitionParams& params) {
  PartitionResult out;
  PartitionStats& st = out.stats;
  st.ands_before = input.num_ands();

  WindowAssignment assignment = assign_windows(input, params.window_size);
  std::vector<Window> windows = build_windows(input, assignment);
  st.num_windows = windows.size();
  const std::size_t num_chunks =
      windows.empty() ? 0
                      : (windows.size() + kChunkWindows - 1) / kChunkWindows;
  st.chunks_total = num_chunks;

  std::vector<std::uint8_t> status(windows.size(), kRejectedQor);
  std::vector<Aig> adopted(windows.size());

  const std::uint64_t fingerprint =
      checkpoint_fingerprint(input, params, windows.size());
  std::size_t done_chunks = 0;
  if (!params.checkpoint_path.empty()) {
    done_chunks = load_checkpoint(params.checkpoint_path, fingerprint,
                                  windows.size(), status, adopted);
    st.chunks_resumed = done_chunks;
  }

  const Pipeline window_pipeline = make_window_pipeline(params);
  const FlowParams window_params = make_window_params(params);

  std::size_t fresh_chunks = 0;
  for (std::size_t c = done_chunks; c < num_chunks; ++c) {
    if (params.cancel != nullptr &&
        params.cancel->load(std::memory_order_relaxed)) {
      return out;  // completed stays false; the checkpoint holds progress
    }
    if (params.stop_after_chunks != 0 &&
        fresh_chunks >= params.stop_after_chunks) {
      return out;
    }
    const std::size_t lo = c * kChunkWindows;
    const std::size_t hi = std::min(lo + kChunkWindows, windows.size());
    std::vector<Aig> subs;
    subs.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      subs.push_back(extract_window(input, windows[i]));
    }
    BatchParams batch;
    batch.num_threads = params.num_threads;
    batch.base_seed = derive_seed(params.seed, c);
    batch.sa_threads = 1;
    batch.cancel = params.cancel;
    batch.warm_cache = params.warm_cache;
    BatchResult br = run_batch(subs, window_pipeline, window_params, batch);
    if (params.cancel != nullptr &&
        params.cancel->load(std::memory_order_relaxed)) {
      return out;  // results may be partial — discard the whole chunk
    }

    SnapshotWriter record;
    record.varint(c);
    record.varint(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      // Normalize through the binary AIGER round trip: a window replayed
      // from the checkpoint is parsed from these bytes, so the fresh path
      // must adopt the exact same structure for resumed and uninterrupted
      // runs to stitch identically.
      std::string bytes = write_aiger_binary(br.results[i - lo].final_aig);
      Aig norm = read_aiger_binary(bytes);
      const Aig& orig = subs[i - lo];
      std::uint8_t s = kRejectedQor;
      bool smaller = norm.num_ands() < orig.num_ands() ||
                     (norm.num_ands() == orig.num_ands() &&
                      norm.num_levels() < orig.num_levels());
      if (smaller) {
        CecParams gate = params.window_cec;
        gate.time_limit_s = 0.0;  // conflict-bounded only: deterministic
        s = cec(orig, norm, gate).status == CecStatus::kEquivalent
                ? kAdopted
                : kRejectedCec;
      }
      status[i] = s;
      record.varint(i);
      record.u8(s);
      if (s == kAdopted) {
        record.varint(bytes.size());
        record.bytes(bytes);
        adopted[i] = std::move(norm);
      }
    }
    if (!params.checkpoint_path.empty()) {
      write_checkpoint_file(params.checkpoint_path, record.str(),
                            /*append=*/true);
    }
    ++fresh_chunks;
  }

  for (std::uint8_t s : status) {
    if (s == kAdopted) ++st.windows_adopted;
    else if (s == kRejectedCec) ++st.windows_rejected_cec;
    else ++st.windows_rejected_qor;
  }
  out.optimized = stitch(input, windows, status, adopted);
  st.ands_after = out.optimized.num_ands();
  st.completed = true;
  return out;
}

}  // namespace emorphic
