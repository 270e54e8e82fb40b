// The checkpoint envelope and the bounds-checked binary reader every
// checkpoint format is parsed with.

#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

namespace emorphic {
namespace {

TEST(Snapshot, ReaderPrimitivesGuardOverflow) {
  // A varint longer than 64 bits must be refused by the shared reader the
  // checkpoint formats build on.
  std::string bad(10, static_cast<char>(0xff));
  bad.push_back(static_cast<char>(0x01));
  SnapshotReader reader(bad);
  EXPECT_THROW(reader.varint("field"), SnapshotError);
}

// --- checkpoint envelope -----------------------------------------------------

constexpr char kTestMagic[4] = {'T', 'E', 'S', 'T'};
constexpr const char* kTestFormat = "test checkpoint";

std::string envelope_path(const std::string& name) {
  std::string path = ::testing::TempDir() + "emorphic_envelope_" + name;
  std::remove(path.c_str());
  return path;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

/// Expect reading `path` as the test format to throw a SnapshotError
/// containing `message`.
void expect_read_error(const std::string& path, std::uint64_t fingerprint,
                       const std::string& message) {
  try {
    (void)read_checkpoint(path, kTestMagic, kTestFormat, fingerprint);
    ADD_FAILURE() << "expected SnapshotError containing " << message;
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointEnvelope, AbsentOrEmptyFileReadsAsNothing) {
  const std::string path = envelope_path("absent");
  EXPECT_FALSE(read_checkpoint(path, kTestMagic, kTestFormat, 7).has_value());
  { std::ofstream touch(path); }
  EXPECT_FALSE(read_checkpoint(path, kTestMagic, kTestFormat, 7).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointEnvelope, ReplaceAndAppendRoundTrip) {
  const std::string path = envelope_path("roundtrip");
  replace_checkpoint(path, kTestMagic, 7, "body");
  append_checkpoint(path, "+record");
  // The header layout: magic, varint version 1, varint fingerprint.
  EXPECT_EQ(file_bytes(path), std::string("TEST\x01\x07" "body+record"));
  EXPECT_EQ(read_checkpoint(path, kTestMagic, kTestFormat, 7),
            std::optional<std::string>("body+record"));
  // Replacing goes through a sibling temporary that is renamed away.
  replace_checkpoint(path, kTestMagic, 7, "new");
  EXPECT_EQ(read_checkpoint(path, kTestMagic, kTestFormat, 7),
            std::optional<std::string>("new"));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(CheckpointEnvelope, HeaderMismatchesThrowNamingTheFormat) {
  const std::string path = envelope_path("mismatch");
  replace_checkpoint(path, kTestMagic, 7, "body");
  expect_read_error(path, 8, "test checkpoint was taken for a different");
  const char other[4] = {'O', 'T', 'H', 'R'};
  replace_checkpoint(path, other, 7, "body");
  expect_read_error(path, 7,
                    "test checkpoint: wrong magic (expected \"TEST\")");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "TEST\x02\x07" "body";
  }
  expect_read_error(path, 7, "unsupported test checkpoint version 2");
  std::remove(path.c_str());
}

TEST(CheckpointEnvelope, UnwritablePathThrowsNamingIt) {
  const std::string path =
      ::testing::TempDir() + "emorphic_no_such_dir/envelope";
  try {
    replace_checkpoint(path, kTestMagic, 7, "body");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_THROW(append_checkpoint(path, "record"), SnapshotError);
}

}  // namespace
}  // namespace emorphic
