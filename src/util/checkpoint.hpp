#pragma once
// The checkpoint envelope and the binary primitives checkpoint formats are
// written with. The partitioned flow's window-result file ("EMPC",
// flow/partition_flow.cpp) is the one format built on it.
//
// Every checkpoint file opens with one header: a 4-byte magic, varint
// version 1, and a varint fingerprint of everything the recorded progress
// depends on. The body after it is format-specific. All integers are
// LEB128 varints; every read is bounds-checked, so a corrupted or truncated
// file throws SnapshotError and never crashes or over-allocates.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace emorphic {

/// Typed error for every malformed-checkpoint condition: wrong magic,
/// unsupported version, fingerprint mismatch, truncation, trailing garbage,
/// or a file that cannot be written. A subclass of std::runtime_error so
/// generic handlers still catch it.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

// --- checkpoint envelope ----------------------------------------------------

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

// --- binary primitives ------------------------------------------------------

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
  /// Reads `data` from byte `pos` on.
  explicit SnapshotReader(const std::string& data, std::size_t pos = 0)
      : data_(data), pos_(pos) {}

  /// Consume and check a 4-byte magic tag.
  void expect_magic(const char tag[4], const char* format_name);
  std::uint8_t u8(const char* field);
  std::uint64_t varint(const char* field);
  /// Consume `n` raw bytes.
  std::string bytes(std::uint64_t n, const char* field);
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  std::size_t pos_;
};

}  // namespace emorphic
