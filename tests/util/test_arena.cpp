#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "egraph/hashcons.hpp"

namespace emorphic {
namespace {

// --- BumpArena ---------------------------------------------------------------

TEST(BumpArena, AllocationsAreDisjointAndAligned) {
  BumpArena arena;
  std::vector<std::uint64_t*> ptrs;
  for (int i = 0; i < 100; ++i) {
    auto* p = arena.alloc<std::uint64_t>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::uint64_t), 0u);
    p[0] = p[1] = p[2] = static_cast<std::uint64_t>(i);
    ptrs.push_back(p);
  }
  // Nothing overwrote anything else.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ptrs[i][0], static_cast<std::uint64_t>(i));
    EXPECT_EQ(ptrs[i][2], static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(arena.used(), 100u * 3u * sizeof(std::uint64_t));
}

TEST(BumpArena, OverAlignedRequestsAreHonored) {
  BumpArena arena;
  static_cast<void>(arena.alloc_bytes(1, 1));  // misalign the bump pointer
  void* p = arena.alloc_bytes(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(BumpArena, ResetKeepsCapacityAndCoalesces) {
  BumpArena arena;
  // Force several blocks with allocations larger than kMinBlock.
  for (int i = 0; i < 4; ++i) static_cast<void>(arena.alloc_bytes(8192, 8));
  std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 4u * 8192u);

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_GE(arena.capacity(), cap);
  EXPECT_EQ(arena.block_count(), 1u);  // coalesced

  // A same-sized epoch now fits in the single warm block: no new mallocs.
  std::uint64_t before = arena_block_allocs();
  for (int i = 0; i < 4; ++i) static_cast<void>(arena.alloc_bytes(8192, 8));
  arena.reset();
#ifdef EMORPHIC_CHECKS
  EXPECT_EQ(arena_block_allocs(), before);
#else
  EXPECT_EQ(before, 0u);  // counter compiled out
#endif
}

TEST(BumpArena, MoveTransfersOwnershipAndKeepsPointersValid) {
  BumpArena a;
  auto* p = a.alloc<std::uint32_t>(8);
  p[7] = 0xBEEF;
  BumpArena b = std::move(a);
  EXPECT_EQ(p[7], 0xBEEFu);  // storage moved with the arena
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_GT(b.capacity(), 0u);
  b.release();
  EXPECT_EQ(b.capacity(), 0u);
}

// --- ArenaSpan / SpanStore ---------------------------------------------------

TEST(SpanStore, PushBackGrowsAndPreservesContents) {
  SpanStore<std::uint32_t> store;
  ArenaSpan<std::uint32_t> span;
  for (std::uint32_t i = 0; i < 1000; ++i) store.push_back(span, i * 7);
  ASSERT_EQ(span.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(span[i], i * 7);
  EXPECT_EQ(store.live(), 1000u);
  EXPECT_GT(store.waste(), 0u);  // growth retired the smaller regions
}

TEST(SpanStore, PushBackSelfAliasIsSafe) {
  // The self-alias use-after-free class: pushing span[0] exactly when the
  // span is at capacity must copy the value before growth retires the old
  // region. Under ASan the broken version reads
  // freed/retired memory.
  SpanStore<std::uint32_t> store;
  ArenaSpan<std::uint32_t> span;
  store.push_back(span, 12345);
  while (span.size() < span.capacity()) {
    store.push_back(span, span.size());
  }
  store.push_back(span, span[0]);  // at capacity: growth relocates span[0]
  EXPECT_EQ(span.back(), 12345u);
}

TEST(SpanStore, ManySpansShareOneArena) {
  SpanStore<std::uint16_t> store;
  std::vector<ArenaSpan<std::uint16_t>> spans(64);
  for (std::uint16_t round = 0; round < 8; ++round) {
    for (std::uint16_t s = 0; s < 64; ++s) {
      store.push_back(spans[s], static_cast<std::uint16_t>(s * 100 + round));
    }
  }
  for (std::uint16_t s = 0; s < 64; ++s) {
    ASSERT_EQ(spans[s].size(), 8u);
    for (std::uint16_t round = 0; round < 8; ++round) {
      EXPECT_EQ(spans[s][round], s * 100 + round);
    }
  }
}

TEST(SpanStore, AppendFromSiblingSpanIsAllowed) {
  SpanStore<std::uint32_t> store;
  ArenaSpan<std::uint32_t> a;
  ArenaSpan<std::uint32_t> b;
  for (std::uint32_t i = 0; i < 16; ++i) store.push_back(a, i);
  for (std::uint32_t i = 0; i < 4; ++i) store.push_back(b, 100 + i);
  // The e-graph merge pattern: drain one sibling span into another.
  store.append(b, a.data(), a.data() + a.size());
  store.release(a);
  ASSERT_EQ(b.size(), 20u);
  EXPECT_EQ(b[0], 100u);
  EXPECT_EQ(b[4], 0u);
  EXPECT_EQ(b[19], 15u);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(SpanStore, AssignReplacesContents) {
  SpanStore<std::uint32_t> store;
  ArenaSpan<std::uint32_t> span;
  for (std::uint32_t i = 0; i < 10; ++i) store.push_back(span, i);
  std::vector<std::uint32_t> replacement{42, 43};
  store.assign(span, replacement.data(),
               replacement.data() + replacement.size());
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0], 42u);
  EXPECT_EQ(span[1], 43u);
  EXPECT_EQ(store.live(), 2u);
}

TEST(SpanStore, CompactReclaimsWasteAndKeepsContents) {
  SpanStore<std::uint32_t> store;
  std::vector<ArenaSpan<std::uint32_t>> spans(32);
  // Grow each span repeatedly so plenty of retired regions accumulate.
  for (std::uint32_t round = 0; round < 100; ++round) {
    for (std::uint32_t s = 0; s < 32; ++s) {
      store.push_back(spans[s], s * 1000 + round);
    }
  }
  // Release half of them (the e-graph's merged-away classes).
  for (std::uint32_t s = 1; s < 32; s += 2) store.release(spans[s]);
  EXPECT_GT(store.waste(), 0u);

  store.compact(spans);
  EXPECT_EQ(store.waste(), 0u);
  EXPECT_EQ(store.live(), 16u * 100u);
  for (std::uint32_t s = 0; s < 32; s += 2) {
    ASSERT_EQ(spans[s].size(), 100u);
    EXPECT_EQ(spans[s].capacity(), spans[s].size());  // tight after compact
    for (std::uint32_t round = 0; round < 100; ++round) {
      EXPECT_EQ(spans[s][round], s * 1000 + round);
    }
  }
  for (std::uint32_t s = 1; s < 32; s += 2) EXPECT_TRUE(spans[s].empty());
}

TEST(SpanStore, SteadyStateEpochsStopAllocatingBlocks) {
  SpanStore<std::uint64_t> store;
  std::vector<ArenaSpan<std::uint64_t>> spans(16);
  auto run_epoch = [&] {
    for (auto& s : spans) s = ArenaSpan<std::uint64_t>{};
    store.reset();
    for (std::uint64_t i = 0; i < 2000; ++i) {
      store.push_back(spans[i % 16], i);
    }
  };
  run_epoch();  // warm-up: blocks get allocated and coalesced by reset()
  run_epoch();  // second warm-up: coalescing may still grow the single block
  std::uint64_t before = arena_block_allocs();
  for (int epoch = 0; epoch < 10; ++epoch) run_epoch();
  EXPECT_EQ(arena_block_allocs(), before)
      << "steady-state epochs must reuse the warm block";
}

// --- HashCons::reserve (the off-by-one satellite fix) ------------------------

ENode key_node(std::uint32_t i) { return ENode::var(i); }

TEST(HashCons, ReserveMeansNoRehashDuringInsert) {
  // try_emplace grows when (used_+1)*8 >= slots*7. The old reserve used
  // `cap * 7 < n * 8` and under-sized the table exactly at the 7/8 boundary
  // (n = 14 got 16 slots; the 14th insert rehashed anyway). Pin: after
  // reserve(n), inserting n entries never changes capacity().
  for (std::size_t n = 1; n <= 512; ++n) {
    HashCons table;
    table.reserve(n);
    std::size_t cap = table.capacity();
    ASSERT_GT(cap, 0u);
    for (std::size_t i = 0; i < n; ++i) {
      table.insert(key_node(static_cast<std::uint32_t>(i)),
                   static_cast<EClassId>(i));
    }
    EXPECT_EQ(table.capacity(), cap) << "reserve(" << n << ") under-sized";
    EXPECT_EQ(table.size(), n);
  }
}

TEST(HashCons, ClearKeepsCapacityAndForgetsEntries) {
  HashCons table;
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.insert(key_node(i), static_cast<EClassId>(i));
  }
  std::size_t cap = table.capacity();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), cap);
  EXPECT_EQ(table.find(key_node(3)), nullptr);
  // Reusable after clear (the EGraph::repair scratch pattern).
  table.insert(key_node(7), 7);
  EXPECT_NE(table.find(key_node(7)), nullptr);
}

}  // namespace
}  // namespace emorphic
