#include "egraph/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/rng.hpp"

namespace emorphic {

// Private-member access seam for the snapshot codec (friend of EGraph).
// Snapshots must reproduce the raw storage — public accessors expose the
// contents but not the union-find ranks or the span stores needed to
// rebuild them verbatim.
struct SnapshotAccess {
  static const std::vector<EClassId>& parent(const EGraph& g) {
    return g.parent_;
  }
  static const std::vector<std::uint32_t>& rank(const EGraph& g) {
    return g.rank_;
  }
  static const ArenaSpan<ENode>& nodes(const EGraph& g, EClassId id) {
    return g.class_nodes_[id];
  }
  static const ArenaSpan<ParentEdge>& parents(const EGraph& g, EClassId id) {
    return g.class_parents_[id];
  }

  static void restore_skeleton(EGraph& g, std::vector<EClassId> parent,
                               std::vector<std::uint32_t> rank) {
    g.parent_ = std::move(parent);
    g.rank_ = std::move(rank);
    g.class_nodes_.resize(g.parent_.size());
    g.class_parents_.resize(g.parent_.size());
  }
  static void push_node(EGraph& g, EClassId id, const ENode& node) {
    g.node_store_.push_back(g.class_nodes_[id], node);
  }
  static void push_parent(EGraph& g, EClassId id, const ParentEdge& edge) {
    g.parent_store_.push_back(g.class_parents_[id], edge);
  }
  static void reserve_hashcons(EGraph& g, std::size_t n) {
    g.hashcons_.reserve(n);
  }
  static void intern(EGraph& g, const ENode& node, EClassId id) {
    g.hashcons_.insert(node, id);
  }
};

namespace {

constexpr char kSnapshotMagic[4] = {'E', 'M', 'S', 'S'};
constexpr std::uint64_t kSnapshotVersion = 1;
constexpr std::uint64_t kCheckpointVersion = 1;

/// Write `head` then `body` to `path`; throws SnapshotError naming the path
/// when the file cannot be opened or fully written.
void write_checkpoint_file(const std::string& path, const std::string& head,
                           const std::string& body, std::ios::openmode mode) {
  std::ofstream out(path, std::ios::binary | mode);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.close();
  if (!out) throw SnapshotError("cannot write checkpoint file '" + path + "'");
}

void write_enode(SnapshotWriter& w, const ENode& node) {
  w.u8(static_cast<std::uint8_t>(node.op));
  w.varint(node.symbol);
  w.varint(node.children[0]);
  w.varint(node.children[1]);
}

// An e-node needs at least 4 bytes (op + three 1-byte varints): the bound
// used to reject fabricated counts before any allocation happens.
constexpr std::size_t kMinENodeBytes = 4;

ENode read_enode(SnapshotReader& r, std::uint64_t num_classes) {
  std::uint8_t op = r.u8("e-node op");
  if (op >= kNumOps) {
    throw SnapshotError("e-node has unknown operator tag " +
                        std::to_string(op));
  }
  ENode node;
  node.op = static_cast<Op>(op);
  std::uint64_t symbol = r.varint("e-node symbol");
  if (symbol > 0xffffffffull) {
    throw SnapshotError("e-node symbol out of range");
  }
  node.symbol = static_cast<std::uint32_t>(symbol);
  for (unsigned i = 0; i < 2; ++i) {
    std::uint64_t child = r.varint("e-node child");
    if (i < node.arity()) {
      if (child >= num_classes) {
        throw SnapshotError("e-node child " + std::to_string(child) +
                            " out of range (" + std::to_string(num_classes) +
                            " classes)");
      }
    } else if (child != kNoEClass) {
      throw SnapshotError("unused e-node child slot holds " +
                          std::to_string(child) + " instead of the sentinel");
    }
    node.children[i] = static_cast<EClassId>(child);
  }
  return node;
}

}  // namespace

// --- SnapshotReader ---------------------------------------------------------

void SnapshotReader::expect_magic(const char tag[4], const char* format_name) {
  if (remaining() < 4) {
    throw SnapshotError(std::string(format_name) + ": truncated before magic");
  }
  if (std::memcmp(data_.data() + pos_, tag, 4) != 0) {
    throw SnapshotError(std::string(format_name) +
                        ": wrong magic (expected \"" + std::string(tag, 4) +
                        "\")");
  }
  pos_ += 4;
}

std::uint8_t SnapshotReader::u8(const char* field) {
  if (remaining() < 1) {
    throw SnapshotError(std::string("truncated at ") + field);
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t SnapshotReader::varint(const char* field) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    if (remaining() < 1) {
      throw SnapshotError(std::string("truncated varint at ") + field);
    }
    std::uint8_t byte = static_cast<std::uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      throw SnapshotError(std::string("varint overflow at ") + field);
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) {
      throw SnapshotError(std::string("varint overflow at ") + field);
    }
  }
}

std::string SnapshotReader::bytes(std::uint64_t n, const char* field) {
  if (n > remaining()) {
    throw SnapshotError(std::string("truncated at ") + field + " (" +
                        std::to_string(n) + " bytes declared, " +
                        std::to_string(remaining()) + " left)");
  }
  std::string out = data_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

void SnapshotReader::expect_end(const char* format_name) {
  if (!at_end()) {
    throw SnapshotError(std::string(format_name) + ": " +
                        std::to_string(remaining()) +
                        " trailing bytes after the end of the document");
  }
}

// --- e-graph snapshot codec -------------------------------------------------

std::string egraph_to_snapshot(const EGraph& egraph) {
  if (egraph.is_dirty()) {
    throw SnapshotError(
        "e-graph has pending merges — rebuild() before snapshotting");
  }
  const std::vector<EClassId>& parent = SnapshotAccess::parent(egraph);
  const std::vector<std::uint32_t>& rank = SnapshotAccess::rank(egraph);

  SnapshotWriter w;
  w.magic(kSnapshotMagic);
  w.varint(kSnapshotVersion);
  w.varint(parent.size());
  for (EClassId p : parent) w.varint(p);
  for (std::uint32_t r : rank) w.varint(r);
  for (EClassId id = 0; id < parent.size(); ++id) {
    if (parent[id] != id) continue;  // non-root: contents were moved out
    const ArenaSpan<ENode>& nodes = SnapshotAccess::nodes(egraph, id);
    const ArenaSpan<ParentEdge>& parents = SnapshotAccess::parents(egraph, id);
    w.varint(nodes.size());
    for (const ENode& n : nodes) write_enode(w, n);
    w.varint(parents.size());
    for (const ParentEdge& e : parents) {
      write_enode(w, e.node);
      w.varint(e.cls);
    }
  }
  return w.take();
}

EGraph snapshot_to_egraph(const std::string& bytes) {
  SnapshotReader r(bytes);
  r.expect_magic(kSnapshotMagic, "e-graph snapshot");
  std::uint64_t version = r.varint("version");
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported e-graph snapshot version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  std::uint64_t n = r.varint("class count");
  // Each class contributes at least one varint byte to the parent array, so
  // counts beyond the input size are fabricated — reject before sizing any
  // allocation off them.
  if (n > bytes.size()) {
    throw SnapshotError("declared class count exceeds input size");
  }
  std::vector<EClassId> parent(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> rank(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t p = r.varint("parent entry");
    if (p >= n) {
      throw SnapshotError("union-find parent " + std::to_string(p) +
                          " out of range");
    }
    parent[static_cast<std::size_t>(i)] = static_cast<EClassId>(p);
  }
  // Snapshots are taken on clean e-graphs, whose union-find is fully
  // compressed; checking it here doubles as the acyclicity proof (every
  // chain terminates after one hop), so restore cannot loop on bad input.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (parent[parent[static_cast<std::size_t>(i)]] !=
        parent[static_cast<std::size_t>(i)]) {
      throw SnapshotError("union-find not compressed at id " +
                          std::to_string(i));
    }
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t rk = r.varint("rank entry");
    if (rk > 0xffffffffull) throw SnapshotError("rank out of range");
    rank[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(rk);
  }

  EGraph g;
  SnapshotAccess::restore_skeleton(g, std::move(parent), std::move(rank));
  const std::vector<EClassId>& par = SnapshotAccess::parent(g);

  std::size_t total_nodes = 0;
  for (EClassId id = 0; id < par.size(); ++id) {
    if (par[id] != id) continue;
    std::uint64_t node_count = r.varint("node count");
    if (node_count > r.remaining() / kMinENodeBytes + 1) {
      throw SnapshotError("declared node count exceeds input size");
    }
    if (node_count == 0) {
      throw SnapshotError("root class " + std::to_string(id) +
                          " has no e-nodes");
    }
    for (std::uint64_t k = 0; k < node_count; ++k) {
      SnapshotAccess::push_node(g, id, read_enode(r, n));
    }
    total_nodes += static_cast<std::size_t>(node_count);
    std::uint64_t parent_count = r.varint("parent-edge count");
    if (parent_count > r.remaining() / (kMinENodeBytes + 1) + 1) {
      throw SnapshotError("declared parent-edge count exceeds input size");
    }
    for (std::uint64_t k = 0; k < parent_count; ++k) {
      ParentEdge edge;
      edge.node = read_enode(r, n);
      std::uint64_t cls = r.varint("parent-edge class");
      if (cls >= n) {
        throw SnapshotError("parent-edge class " + std::to_string(cls) +
                            " out of range");
      }
      edge.cls = static_cast<EClassId>(cls);
      SnapshotAccess::push_parent(g, id, edge);
    }
  }
  r.expect_end("e-graph snapshot");

  // Re-intern the live nodes. On a clean e-graph the hashcons is exactly
  // this set (check_invariants' bijection), and every lookup resolves the
  // stored value through find(), so root-valued entries are equivalent to
  // whatever mix of root/stale values the original table held.
  SnapshotAccess::reserve_hashcons(g, total_nodes);
  for (EClassId id = 0; id < par.size(); ++id) {
    if (par[id] != id) continue;
    for (const ENode& node : SnapshotAccess::nodes(g, id)) {
      SnapshotAccess::intern(g, node, id);
    }
  }
  return g;
}

// --- checkpoint envelope ----------------------------------------------------

std::uint64_t fingerprint_fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

std::optional<std::string> read_checkpoint(const std::string& path,
                                           const char magic[4],
                                           const char* format,
                                           std::uint64_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  std::string data(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>{});
  if (data.empty()) return std::nullopt;  // absent, unreadable or empty
  SnapshotReader r(data);
  r.expect_magic(magic, format);
  std::uint64_t version = r.varint("version");
  if (version != kCheckpointVersion) {
    throw SnapshotError("unsupported " + std::string(format) + " version " +
                        std::to_string(version));
  }
  if (r.varint("fingerprint") != fingerprint) {
    throw SnapshotError(std::string(format) +
                        " was taken for a different circuit or configuration "
                        "(fingerprint mismatch) — delete it to start over");
  }
  return data.substr(data.size() - r.remaining());
}

void replace_checkpoint(const std::string& path, const char magic[4],
                        std::uint64_t fingerprint, const std::string& body) {
  SnapshotWriter header;
  header.magic(magic);
  header.varint(kCheckpointVersion);
  header.varint(fingerprint);
  const std::string tmp = path + ".tmp";
  write_checkpoint_file(tmp, header.str(), body, std::ios::trunc);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("cannot move checkpoint '" + tmp + "' into place at '" +
                        path + "'");
  }
}

void append_checkpoint(const std::string& path, const std::string& record) {
  write_checkpoint_file(path, {}, record, std::ios::app);
}

}  // namespace emorphic
