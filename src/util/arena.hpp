#pragma once
// The repo-wide bump allocator layer behind the allocation-free hot loop
// (ROADMAP item 3).
//
// Two tiers, stacked:
//
//  * BumpArena — a block list with pointer-bump allocation. `reset()` is the
//    epoch boundary: it rewinds to empty while keeping the capacity, and
//    when the epoch spilled across several blocks it coalesces them into one
//    so the *next* epoch of the same size does zero mallocs. Allocations
//    never move or free individually; an arena's addresses are stable until
//    reset()/release().
//  * ArenaSpan<T> / SpanStore<T> — the struct-of-arrays building block: a
//    trivially copyable {data, size, capacity} header (stored densely,
//    indexed by class/node id) whose element storage lives in a SpanStore's
//    arena. Grow-in-place is impossible in a bump arena, so growth allocates
//    a fresh region and retires the old one as tracked waste; compact()
//    copies the live spans into a fresh arena when the waste justifies it
//    (the e-graph does this at rebuild() — epoch reclaim).
//
// Instrumentation: under EMORPHIC_CHECKS every block malloc bumps a global
// counter (arena_block_allocs()), so the tests/alloc suite can assert that
// a warmed-up loop stops touching the system allocator.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef EMORPHIC_CHECKS
#include <atomic>
#endif

namespace emorphic {

#ifdef EMORPHIC_CHECKS
namespace detail {
inline std::atomic<std::uint64_t>& arena_block_alloc_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}
}  // namespace detail
#endif

/// Number of arena block mallocs performed process-wide. Always 0 unless
/// EMORPHIC_CHECKS is compiled in; a steady-state assertion reads it before
/// and after the loop under test and requires the delta to be zero.
inline std::uint64_t arena_block_allocs() {
#ifdef EMORPHIC_CHECKS
  return detail::arena_block_alloc_counter().load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

/// Pointer-bump allocator over a list of malloc'd blocks.
class BumpArena {
 public:
  BumpArena() = default;

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  // Moving transfers block ownership; outstanding pointers stay valid.
  BumpArena(BumpArena&& other) noexcept { steal(other); }
  BumpArena& operator=(BumpArena&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~BumpArena() { release(); }

  /// Allocate `bytes` aligned to `align` (a power of two). The memory is
  /// uninitialized and lives until reset()/release().
  void* alloc_bytes(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      // Align the *address*, not the offset: malloc only guarantees
      // max_align_t, so an over-aligned request must pad relative to the
      // block base (tests/util/test_arena.cpp pins this with align=64).
      std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b.data);
      std::size_t at = offset_ + ((~(base + offset_) + 1) & (align - 1));
      if (at + bytes <= b.size) {
        offset_ = at + bytes;
        used_ += bytes;
        return b.data + at;
      }
      // Exhausted: move on (a later retained block may fit after a reset).
      ++cur_;
      offset_ = 0;
    }
    Block fresh = new_block(bytes + align);
    blocks_.push_back(fresh);
    cur_ = blocks_.size() - 1;
    // malloc returns max_align_t-aligned memory; pad only for over-aligned
    // requests.
    std::size_t at =
        (~reinterpret_cast<std::uintptr_t>(fresh.data) + 1) & (align - 1);
    offset_ = at + bytes;
    used_ += bytes;
    return fresh.data + at;
  }

  /// Typed allocation of `n` uninitialized elements.
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BumpArena hands out raw, memcpy-able storage");
    return static_cast<T*>(alloc_bytes(n * sizeof(T), alignof(T)));
  }

  /// Epoch boundary: rewind to empty, keep the capacity. When the past
  /// epoch spilled into several blocks they are coalesced into one, so a
  /// same-sized next epoch allocates from a single warm block with zero
  /// mallocs. Invalidates everything previously handed out.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.size;
      for (Block& b : blocks_) std::free(b.data);
      blocks_.clear();
      blocks_.push_back(new_block(total));
    }
    cur_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  /// Free every block (the arena returns to its just-constructed state).
  void release() {
    for (Block& b : blocks_) std::free(b.data);
    blocks_.clear();
    cur_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  /// Bytes handed out since the last reset (excluding alignment padding).
  std::size_t used() const { return used_; }

  /// Total bytes owned across blocks.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    unsigned char* data = nullptr;
    std::size_t size = 0;
  };

  static constexpr std::size_t kMinBlock = 4096;

  Block new_block(std::size_t at_least) {
    std::size_t size = kMinBlock;
    // Geometric growth keyed off the existing capacity bounds the number of
    // blocks (and thus coalescing copies) to O(log total).
    std::size_t have = capacity();
    if (have > size) size = have;
    if (at_least > size) size = at_least;
    unsigned char* data = static_cast<unsigned char*>(std::malloc(size));
    if (data == nullptr) throw std::bad_alloc();
#ifdef EMORPHIC_CHECKS
    detail::arena_block_alloc_counter().fetch_add(1, std::memory_order_relaxed);
#endif
    return Block{data, size};
  }

  void steal(BumpArena& other) {
    blocks_ = std::move(other.blocks_);
    cur_ = other.cur_;
    offset_ = other.offset_;
    used_ = other.used_;
    other.blocks_.clear();
    other.cur_ = 0;
    other.offset_ = 0;
    other.used_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;     // block currently bumped into
  std::size_t offset_ = 0;  // bump offset within blocks_[cur_]
  std::size_t used_ = 0;
};

/// A {data, size, capacity} span header whose element storage lives in a
/// SpanStore's arena. Trivially copyable: headers are stored densely in
/// std::vectors indexed by id (the SoA layout), and copying a header is a
/// view copy — the elements are owned by the store, not the header.
template <typename T>
class ArenaSpan {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaSpan elements live in raw arena storage");

 public:
  ArenaSpan() = default;

  T* data() { return data_; }
  const T* data() const { return data_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::reverse_iterator<T*> rbegin() { return std::reverse_iterator<T*>(end()); }
  std::reverse_iterator<T*> rend() { return std::reverse_iterator<T*>(begin()); }
  std::reverse_iterator<const T*> rbegin() const {
    return std::reverse_iterator<const T*>(end());
  }
  std::reverse_iterator<const T*> rend() const {
    return std::reverse_iterator<const T*>(begin());
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("ArenaSpan::at");
    return data_[i];
  }
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("ArenaSpan::at");
    return data_[i];
  }

  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  /// Forget the contents, keep the storage (mirrors vector::clear).
  void clear() { size_ = 0; }

  /// Drop the last element (storage stays with the span).
  void pop_back() { --size_; }

 private:
  template <typename U>
  friend class SpanStore;

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

/// Owner of the element storage behind a family of ArenaSpan<T> headers.
/// All mutation of a span's *shape* (growth, assign, release) goes through
/// the store; reading and in-place element writes go through the span.
template <typename T>
class SpanStore {
 public:
  /// Append one element, growing the span's arena region if needed. Safe
  /// even when `value` aliases an element of `span` (growth retires the
  /// region `value` lives in — see tests/util/test_arena.cpp).
  void push_back(ArenaSpan<T>& span, const T& value) {
    if (span.size_ == span.capacity_) {
      T tmp = value;  // `value` may live in the region grow() retires
      grow(span, span.size_ + 1);
      span.data_[span.size_++] = tmp;
    } else {
      span.data_[span.size_++] = value;
    }
    ++live_;
  }

  /// Append [first, last); the range must not alias `span`'s storage
  /// (growth would memcpy from a retired region). Ranges in *other* spans
  /// of this store are fine:
  /// arena regions never move.
  void append(ArenaSpan<T>& span, const T* first, const T* last) {
    std::size_t n = static_cast<std::size_t>(last - first);
    if (n == 0) return;
    if (span.size_ + n > span.capacity_) grow(span, span.size_ + n);
    std::memcpy(span.data_ + span.size_, first, n * sizeof(T));
    span.size_ += static_cast<std::uint32_t>(n);
    live_ += n;
  }

  /// Replace the contents with [first, last) (no aliasing, as in append).
  void assign(ArenaSpan<T>& span, const T* first, const T* last) {
    live_ -= span.size_;
    span.size_ = 0;
    append(span, first, last);
  }

  /// Ensure capacity for `n` elements (exact-fit when growing from empty,
  /// so enumeration passes that know their count pay zero waste).
  void reserve(ArenaSpan<T>& span, std::size_t n) {
    if (n > span.capacity_) grow(span, n);
  }

  /// Retire the span's storage (tracked as waste until compact()) and zero
  /// the header.
  void release(ArenaSpan<T>& span) {
    waste_ += span.capacity_;
    live_ -= span.size_;
    span = ArenaSpan<T>{};
  }

  /// Copy every live span into the spare arena and swap — the epoch reclaim
  /// step. Headers in `spans` are rewritten (tight: capacity == size); any
  /// header NOT in `spans` becomes dangling, so callers pass every live
  /// header family they own.
  ///
  /// The two arenas ping-pong: the retired one is kept as the next
  /// compaction's target, so a steady-state loop (compact every rebuild,
  /// same sizes every epoch) runs with zero mallocs once both arenas have
  /// warmed up to the epoch size — retained memory traded for an
  /// allocation-free hot loop, the same deal reset() makes.
  void compact(std::vector<ArenaSpan<T>>& spans) {
    spare_.reset();
    std::size_t total = 0;
    for (const ArenaSpan<T>& s : spans) total += s.size();
    if (total > 0) {
      // One up-front region so the copy loop never mallocs mid-flight.
      static_cast<void>(spare_.alloc<T>(total));
      spare_.reset();
    }
    for (ArenaSpan<T>& s : spans) {
      if (s.size_ == 0) {
        s = ArenaSpan<T>{};
        continue;
      }
      T* data = spare_.alloc<T>(s.size_);
      std::memcpy(data, s.data_, s.size_ * sizeof(T));
      s.data_ = data;
      s.capacity_ = s.size_;
    }
    std::swap(arena_, spare_);
    waste_ = 0;
    live_ = total;  // resync (ArenaSpan::clear/pop_back bypass the store)
  }

  /// Drop every span at once (headers the caller holds become dangling and
  /// must be cleared/reassigned by the caller). Arena capacity is kept.
  void reset() {
    arena_.reset();
    waste_ = 0;
    live_ = 0;
  }

  /// Elements currently reachable through live spans.
  std::size_t live() const { return live_; }
  /// Elements' worth of storage retired by growth/release since the last
  /// compact()/reset().
  std::size_t waste() const { return waste_; }

 private:
  void grow(ArenaSpan<T>& span, std::size_t min_capacity) {
    std::size_t next = span.capacity_ == 0
                           ? min_capacity
                           : std::size_t{span.capacity_} * 2;
    if (next < min_capacity) next = min_capacity;
    T* data = arena_.alloc<T>(next);
    if (span.size_ > 0) {
      std::memcpy(data, span.data_, span.size_ * sizeof(T));
    }
    waste_ += span.capacity_;
    span.data_ = data;
    span.capacity_ = static_cast<std::uint32_t>(next);
  }

  BumpArena arena_;
  BumpArena spare_;  // compact()'s ping-pong partner
  std::size_t waste_ = 0;
  std::size_t live_ = 0;
};

}  // namespace emorphic
