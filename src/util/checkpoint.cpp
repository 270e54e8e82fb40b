#include "util/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/rng.hpp"

namespace emorphic {

namespace {

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
