#pragma once
// Thread-safe memo of QoR-evaluator results keyed by the candidate AIG's
// structural signature (aig/signature.hpp).
//
// Historically this lived inside sa_extractor.cpp as a per-run cache: SA
// chains revisit each other's neighborhoods near convergence, and a cached
// Qor is bit-identical to a recomputed one (the evaluator is deterministic),
// so memoization never alters the annealing trajectory. Promoting it to a
// public type lets the cache outlive a single extraction: the WarmCache
// substrate (flow/warm_cache.hpp) shares one memo across every flow the
// synthesis service runs, so a repeated circuit's SA phase skips technology
// mapping almost entirely.
//
// Sharing discipline: one memo serves ONE (deterministic) evaluator over ONE
// cell library. The structural signature does not encode either, so mixing
// them in one memo would return wrong answers; WarmCache enforces this by
// construction.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "extract/sa_extractor.hpp"  // Qor

namespace emorphic {

class QorMemo {
 public:
  /// The Qor for `key`: the memoized answer when there is one (a hit),
  /// else `evaluate()`'s, which is then memoized (a miss). A miss first
  /// claims the key, so concurrent callers with one key evaluate it once:
  /// a caller that finds another's claim waits for its result and counts a
  /// hit. That makes the hit and miss counts independent of thread timing.
  /// If `evaluate` throws, its claim is withdrawn, the waiters wake (one of
  /// them claims the key next) and the exception propagates. `*hit` tells
  /// the caller which case it was.
  template <typename Evaluate>
  Qor get_or_evaluate(std::uint64_t key, Evaluate&& evaluate, bool* hit) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      published_.wait(lock, [&] {
        auto it = map_.find(key);
        return it == map_.end() || it->second.ready;  // no claim in flight
      });
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++hits_;
        *hit = true;
        return it->second.qor;
      }
      map_.emplace(key, Entry{});
      ++misses_;
    }
    *hit = false;
    Qor qor;
    try {
      qor = evaluate();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end() && !it->second.ready) map_.erase(it);
      }
      published_.notify_all();
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      map_.insert_or_assign(key, Entry{qor, true});
    }
    published_.notify_all();
    return qor;
  }

  /// Memoized results (claims still being evaluated excluded).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size() - count_claims();
  }

  /// Keys claimed by an evaluation still in flight.
  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_claims();
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }

  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

  /// Forget every result and reset the counters. Meant for idle memos: an
  /// evaluation in flight still publishes afterwards, and a key cleared
  /// under its claim may be evaluated twice.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Entry {
    Qor qor;
    bool ready = false;  // false: claimed, evaluation in flight
  };

  std::size_t count_claims() const {
    std::size_t claims = 0;
    // lint:allow(unordered-iteration) order-independent count
    for (const auto& [key, entry] : map_) claims += entry.ready ? 0 : 1;
    return claims;
  }

  mutable std::mutex mutex_;
  std::condition_variable published_;  // a claim was resolved
  std::unordered_map<std::uint64_t, Entry> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace emorphic
