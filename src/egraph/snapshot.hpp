#pragma once
// Binary e-graph snapshots: a byte-exact serialization of a *clean*
// (rebuilt) e-graph, built for mid-saturation checkpoint/restore.
//
// The Fig. 7 JSON DSL (serialize.hpp) captures an e-graph up to
// equivalence — good for interchange, but it re-numbers classes and drops
// cyclic node forms, so a restored e-graph continues a saturation run on a
// *different* trajectory. Checkpointing needs more: the restored e-graph
// must be observationally identical — same class ids, same member order,
// same union-find shape and ranks — so that resuming iteration k+1 from a
// snapshot taken after iteration k reproduces the uninterrupted run bit
// for bit (the runner's match order walks class ids and member lists in
// storage order, and merge decisions read the union-find ranks).
//
// The format ("EMSS", versioned) therefore serializes the raw internals:
// the union-find arrays plus every root class's node and parent-edge
// spans, verbatim. The hashcons is NOT stored: on a clean e-graph it is
// exactly the set of live canonical e-nodes (check_invariants enforces the
// bijection), so restore re-interns them — every lookup resolves through
// find() anyway, making the root-valued rebuild observationally identical.
//
// All integers are LEB128 varints; every count is bounds-checked against
// the remaining input before any allocation, so a corrupted or truncated
// snapshot throws SnapshotError and never crashes or over-allocates.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "egraph/egraph.hpp"

namespace emorphic {

/// Typed error for every malformed-snapshot condition: wrong magic,
/// unsupported version, truncation, out-of-range ids, trailing garbage.
/// A subclass of std::runtime_error so generic handlers still catch it.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// Serialize a clean e-graph ("EMSS" format). Throws SnapshotError when the
/// e-graph has pending merges (snapshots are taken between iterations, where
/// rebuild() has restored the invariants).
std::string egraph_to_snapshot(const EGraph& egraph);

/// Restore an e-graph from egraph_to_snapshot bytes. The result is
/// observationally identical to the snapshotted e-graph: same class ids,
/// same member/parent order, same union-find, re-interned hashcons. Throws
/// SnapshotError on any malformed input.
EGraph snapshot_to_egraph(const std::string& bytes);

// --- checkpoint envelope ----------------------------------------------------
// Every checkpoint file ("EMCK", "EMPC") opens with one header: a 4-byte
// magic, varint version 1, and a varint fingerprint of everything the
// recorded progress depends on. The body after it is format-specific.

/// Fold one configuration value into a checkpoint fingerprint.
std::uint64_t fingerprint_fold(std::uint64_t h, std::uint64_t v);

/// The body of the checkpoint at `path`; nothing when the file is absent or
/// empty. Throws SnapshotError naming `format` on a wrong magic or version,
/// or on a fingerprint other than `fingerprint`.
std::optional<std::string> read_checkpoint(const std::string& path,
                                           const char magic[4],
                                           const char* format,
                                           std::uint64_t fingerprint);

/// Replace the checkpoint at `path` with header + `body` atomically (write
/// `path.tmp`, rename it into place), so a crash leaves the previous file.
/// Throws SnapshotError naming the path when it cannot be written: a
/// checkpoint that silently fails to persist leaves a crash unrecoverable.
void replace_checkpoint(const std::string& path, const char magic[4],
                        std::uint64_t fingerprint, const std::string& body);

/// Append one record to the checkpoint at `path` (same error contract).
void append_checkpoint(const std::string& path, const std::string& record);

// --- shared binary primitives -----------------------------------------------
// Reused by the checkpoint file formats (flow/pipeline.cpp's saturation
// checkpoints, flow/partition_flow.cpp's window-result checkpoints).

/// Append-only byte-buffer writer with LEB128 varints.
class SnapshotWriter {
 public:
  void magic(const char tag[4]) { out_.append(tag, 4); }
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }
  void bytes(const std::string& data) { out_.append(data); }
  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a byte string; every underrun or malformed
/// varint throws SnapshotError naming the failing field.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& data) : data_(data) {}

  /// Consume and check a 4-byte magic tag.
  void expect_magic(const char tag[4], const char* format_name);
  std::uint8_t u8(const char* field);
  std::uint64_t varint(const char* field);
  /// Consume `n` raw bytes.
  std::string bytes(std::uint64_t n, const char* field);
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  /// Throw unless the input was consumed exactly.
  void expect_end(const char* format_name);

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

}  // namespace emorphic
