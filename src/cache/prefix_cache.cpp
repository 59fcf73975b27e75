#include "cache/prefix_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rtmobile::cache {

PrefixCache::PrefixCache(const CacheConfig& config)
    : config_(config), doorkeeper_(kDoorkeeperSlots, 0) {
  RT_REQUIRE(config_.quant_scale > 0.0F,
             "cache: quant_scale must be positive");
}

PrefixCache::Entry* PrefixCache::find_exact(const PrefixCursor& key) {
  const auto it = map_.find(key.bucket);
  if (it == map_.end()) return nullptr;
  Entry& entry = it->second;
  // A quantized-bucket collision: some other prefix owns this slot. The
  // signature is the exact-prefix proof; without it, miss.
  if (entry.sig_lo != key.sig_lo || entry.sig_hi != key.sig_hi) {
    return nullptr;
  }
  return &entry;
}

const PrefixCache::Entry* PrefixCache::lookup(const PrefixCursor& key) {
  Entry* entry = find_exact(key);
  if (entry != nullptr) lru_.splice(lru_.begin(), lru_, entry->lru);
  return entry;
}

bool PrefixCache::admit(const PrefixCursor& key) {
  static_assert(std::has_single_bit(kDoorkeeperSlots));
  std::uint64_t& slot = doorkeeper_[key.sig_lo & (kDoorkeeperSlots - 1)];
  const std::uint64_t tag = key.sig_hi | 1U;
  if (slot == tag || find_exact(key) != nullptr) return true;
  slot = tag;
  return false;
}

PrefixCache::InsertResult PrefixCache::insert(const PrefixCursor& key,
                                              std::span<const float> logits,
                                              std::span<const float> state) {
  InsertResult result;
  const auto it = map_.find(key.bucket);
  if (it != map_.end()) {
    Entry& entry = it->second;
    lru_.splice(lru_.begin(), lru_, entry.lru);
    if (entry.sig_lo == key.sig_lo && entry.sig_hi == key.sig_hi) {
      // Same prefix recomputed (its entry was inserted by a sibling
      // stream racing ahead): deterministic arithmetic means the payload
      // is already identical — refresh recency and keep it.
      return result;
    }
    // Bucket collision: the new prefix takes the slot (counted as an
    // eviction — the old occupant is gone either way).
    bytes_ -= entry_bytes(entry.logits.size(), entry.state.size());
    entry.sig_lo = key.sig_lo;
    entry.sig_hi = key.sig_hi;
    entry.logits.assign(logits.begin(), logits.end());
    entry.state.assign(state.begin(), state.end());
    const std::size_t added = entry_bytes(logits.size(), state.size());
    bytes_ += added;
    result.bytes_added = added;
    result.evicted = 1;
    ++evictions_;
  } else {
    lru_.push_front(key.bucket);
    Entry& entry = map_[key.bucket];
    entry.sig_lo = key.sig_lo;
    entry.sig_hi = key.sig_hi;
    entry.logits.assign(logits.begin(), logits.end());
    entry.state.assign(state.begin(), state.end());
    entry.lru = lru_.begin();
    const std::size_t added = entry_bytes(logits.size(), state.size());
    bytes_ += added;
    result.bytes_added = added;
  }
  // Budget: shed least-recently-used entries, but never the one just
  // touched (front) — a budget below one entry degrades to a 1-entry
  // cache, not to an empty one.
  while (bytes_ > config_.byte_budget && map_.size() > 1) {
    evict_lru();
    ++result.evicted;
  }
  return result;
}

void PrefixCache::evict_lru() {
  RT_ASSERT(!lru_.empty(), "cache: evict on empty LRU list");
  const std::uint64_t victim = lru_.back();
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
