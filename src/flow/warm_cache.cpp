#include "flow/warm_cache.hpp"

#include "aig/signature.hpp"
#include "util/rng.hpp"

namespace emorphic {

std::shared_ptr<const Matcher> WarmCache::matcher_for(
    const CellLibrary& library) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [lib, matcher] : matchers_) {
      if (lib == &library) return matcher;
    }
  }
  // Canonize outside the lock: a Matcher build is the expensive part, and
  // two racers building the same library both produce correct instances —
  // the first insert wins and the loser's build is dropped.
  auto built = std::make_shared<const Matcher>(library);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [lib, matcher] : matchers_) {
    if (lib == &library) return matcher;
  }
  matchers_.emplace_back(&library, built);
  return built;
}

void WarmCache::prepare(FlowContext& ctx) {
  ctx.matcher = matcher_for(*ctx.params.library);
  if (ctx.params.library == library_ && ctx.evaluator == nullptr) {
    ctx.qor_memo = &qor_memo_;
  }
}

std::uint64_t WarmCache::flow_key(const Aig& input, std::uint64_t seed,
                                  std::uint64_t params_fingerprint) {
  std::uint64_t key = splitmix64(structural_signature(input));
  key = splitmix64(key ^ splitmix64(seed));
  key = splitmix64(key ^ splitmix64(params_fingerprint));
  return key;
}

bool WarmCache::lookup_flow(std::uint64_t key, CachedFlow* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    ++flow_misses_;
    return false;
  }
  ++flow_hits_;
  *out = it->second;
  return true;
}

void WarmCache::insert_flow(std::uint64_t key, CachedFlow cached) {
  std::lock_guard<std::mutex> lock(mutex_);
  flows_.emplace(key, std::move(cached));
}

WarmCacheStats WarmCache::stats() const {
  WarmCacheStats stats;
  stats.qor_hits = qor_memo_.hits();
  stats.qor_misses = qor_memo_.misses();
  stats.qor_entries = qor_memo_.size();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.result_hits = flow_hits_;
  stats.result_misses = flow_misses_;
  stats.result_entries = flows_.size();
  stats.matchers = matchers_.size();
  return stats;
}

void WarmCache::clear() {
  qor_memo_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  matchers_.clear();
  flows_.clear();
  flow_hits_ = 0;
  flow_misses_ = 0;
}

}  // namespace emorphic
