#include "egraph/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "../test_helpers.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"

namespace emorphic {
namespace {

// A moderately interesting e-graph: a random circuit pushed through a couple
// of saturation iterations, so classes hold multiple nodes, the union-find
// has real merges, and parent lists are non-trivial.
EGraph rewritten_egraph(std::uint64_t seed, std::size_t iterations = 2) {
  Rng rng(seed);
  Aig aig = testing::random_aig(4, 2, 20, rng);
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerParams limits;
  limits.max_iterations = iterations;
  limits.max_enodes = 5000;
  run_rewriting(ce.egraph, make_logic_rules(), limits);
  return std::move(ce.egraph);
}

TEST(Snapshot, RoundTripSmallGraph) {
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId f = eg.add_or(eg.add_not(a), eg.add_and(a, b));
  (void)f;
  std::string bytes = egraph_to_snapshot(eg);
  EGraph back = snapshot_to_egraph(bytes);
  EXPECT_EQ(back.num_classes(), eg.num_classes());
  EXPECT_EQ(back.num_enodes(), eg.num_enodes());
  std::string why;
  EXPECT_TRUE(back.check_invariants(&why)) << why;
}

TEST(Snapshot, RoundTripIsAByteFixedPoint) {
  // snapshot(restore(snapshot(g))) == snapshot(g): the restored e-graph is
  // observationally identical, so re-serializing it reproduces the bytes.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    EGraph eg = rewritten_egraph(seed);
    std::string bytes = egraph_to_snapshot(eg);
    EGraph back = snapshot_to_egraph(bytes);
    std::string why;
    ASSERT_TRUE(back.check_invariants(&why)) << why;
    EXPECT_EQ(egraph_to_snapshot(back), bytes) << "seed " << seed;
  }
}

TEST(Snapshot, RestoredGraphContinuesSaturationIdentically) {
  // The whole point of the format: resuming iteration k+1 from a snapshot
  // taken after iteration k must reproduce the uninterrupted run bit for
  // bit. Continue both the original and the restored graph with the same
  // limits and compare final snapshots.
  EGraph original = rewritten_egraph(11, 2);
  std::string mid = egraph_to_snapshot(original);
  EGraph restored = snapshot_to_egraph(mid);

  RunnerParams more;
  more.max_iterations = 2;
  more.max_enodes = 20000;
  const std::vector<Rewrite> rules = make_logic_rules();
  run_rewriting(original, rules, more);
  run_rewriting(restored, rules, more);

  EXPECT_EQ(egraph_to_snapshot(restored), egraph_to_snapshot(original));
}

TEST(Snapshot, DirtyEGraphIsRejected) {
  // Snapshots are only taken between iterations where rebuild() has run;
  // serializing a graph with pending merges would bake in a broken state.
  EGraph eg;
  EClassId a = eg.add_var(0);
  EClassId b = eg.add_var(1);
  EClassId ab = eg.add_and(a, b);
  EClassId ba = eg.add_or(a, b);
  eg.merge(ab, ba);  // no rebuild(): eg.is_dirty()
  ASSERT_TRUE(eg.is_dirty());
  EXPECT_THROW(egraph_to_snapshot(eg), SnapshotError);
}

TEST(Snapshot, EmptyInputThrows) {
  EXPECT_THROW(snapshot_to_egraph(""), SnapshotError);
}

TEST(Snapshot, WrongMagicThrows) {
  std::string bytes = egraph_to_snapshot(rewritten_egraph(21));
  bytes[0] = 'X';
  EXPECT_THROW(snapshot_to_egraph(bytes), SnapshotError);
}

TEST(Snapshot, VersionSkewThrows) {
  // A snapshot from a future (or corrupted) version must be refused, not
  // misinterpreted.
  std::string bytes = egraph_to_snapshot(rewritten_egraph(22));
  bytes[4] = static_cast<char>(0x7f);
  EXPECT_THROW(snapshot_to_egraph(bytes), SnapshotError);
}

TEST(Snapshot, TrailingGarbageThrows) {
  std::string bytes = egraph_to_snapshot(rewritten_egraph(23));
  EXPECT_THROW(snapshot_to_egraph(bytes + "x"), SnapshotError);
}

TEST(Snapshot, EveryTruncationThrowsTyped) {
  // Chop the snapshot at every prefix length: each must throw SnapshotError
  // (never crash, never return). This is the crash-safety contract a
  // checkpoint file torn mid-write leans on.
  std::string bytes = egraph_to_snapshot(rewritten_egraph(24));
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(snapshot_to_egraph(bytes.substr(0, len)), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(Snapshot, ByteFlipsNeverCrash) {
  // Single-byte corruption anywhere in the payload either throws the typed
  // error or restores to *some* graph — it must never crash, loop, or
  // over-allocate (the sanitizer jobs give this test its teeth). A flip
  // that survives parsing may yield a semantically different graph; that is
  // what the fingerprint gates in the checkpoint formats are for.
  std::string bytes = egraph_to_snapshot(rewritten_egraph(25));
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char flip : {0x01, 0x80, 0xff}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ flip);
      try {
        EGraph back = snapshot_to_egraph(bad);
        // Walk the result so a structurally broken restore would trip the
        // sanitizers here rather than in a later consumer.
        (void)back.num_classes();
        (void)back.num_enodes();
      } catch (const SnapshotError&) {
        // typed rejection is the expected common case
      }
    }
  }
}

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
