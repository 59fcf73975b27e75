#include "cache/prefix_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rtmobile::cache {

PrefixCache::PrefixCache(const CacheConfig& config)
    : config_(config), doorkeeper_(kDoorkeeperSlots, 0) {}

const PrefixCache::Entry* PrefixCache::lookup(const PrefixCursor& key) {
  const auto it = map_.find({key.sig_lo, key.sig_hi});
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second;
}

bool PrefixCache::admit(const PrefixCursor& key) {
  static_assert(std::has_single_bit(kDoorkeeperSlots));
  std::uint64_t& slot = doorkeeper_[key.sig_lo & (kDoorkeeperSlots - 1)];
  const std::uint64_t tag = key.sig_hi | 1U;
  if (slot == tag || map_.contains({key.sig_lo, key.sig_hi})) return true;
  slot = tag;
  return false;
}

PrefixCache::InsertResult PrefixCache::insert(const PrefixCursor& key,
                                              std::span<const float> logits,
                                              std::span<const float> state) {
  InsertResult result;
  const auto [it, inserted] = map_.try_emplace({key.sig_lo, key.sig_hi});
  Entry& entry = it->second;
  if (!inserted) {
    // Same prefix recomputed (its entry was inserted by a sibling stream
    // racing ahead): deterministic arithmetic means the payload is
    // already identical — refresh recency and keep it.
    lru_.splice(lru_.begin(), lru_, entry.lru);
    return result;
  }
  lru_.push_front(it->first);
  entry.logits.assign(logits.begin(), logits.end());
  entry.state.assign(state.begin(), state.end());
  entry.lru = lru_.begin();
  result.bytes_added = entry_bytes(logits.size(), state.size());
  bytes_ += result.bytes_added;
  // Budget: shed least-recently-used entries, but never the one just
  // inserted (front) — a budget below one entry degrades to a 1-entry
  // cache, not to an empty one.
  while (bytes_ > config_.byte_budget && map_.size() > 1) {
    evict_lru();
    ++result.evicted;
  }
  return result;
}

void PrefixCache::evict_lru() {
  RT_ASSERT(!lru_.empty(), "cache: evict on empty LRU list");
  const Key victim = lru_.back();
  const auto it = map_.find(victim);
  RT_ASSERT(it != map_.end(), "cache: LRU tail missing from map");
  bytes_ -= entry_bytes(it->second.logits.size(), it->second.state.size());
  map_.erase(it);
  lru_.pop_back();
  ++evictions_;
}

void PrefixCache::clear() {
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  std::fill(doorkeeper_.begin(), doorkeeper_.end(), 0);
}

}  // namespace rtmobile::cache
