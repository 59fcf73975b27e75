// Shard-local prefix result cache for repeat-heavy traffic.
//
// Wake-word and IVR audio repeats massively at fleet scale: the same
// greeting, the same menu phrase, the same trigger word, thousands of
// times an hour. Every repeated utterance re-runs the identical GRU
// recurrence from the identical zero state — compute that produces bit-
// for-bit the same logits it produced last time. This cache memoizes
// that work per step: an entry maps a stream's *audio prefix* (every
// feature frame consumed so far, starting from the initial hidden state)
// to the logits row the model produced for the last frame of that prefix
// plus the post-step hidden-state snapshot needed to keep going. A
// stream whose prefix matches a cached trajectory skips model compute
// entirely — restore the snapshot, emit the memoized row — and falls
// through to plain compute on the first divergent frame.
//
// The key is a 128-bit chained fingerprint over the exact bit patterns
// of every frame consumed, seeded from the stream's initial hidden
// state. Only an exact key match hits, so two prefixes never share an
// entry: a prefix the cache does not hold is a miss (plain compute),
// never a wrong output. The key lives in a PrefixCursor that each
// StreamingSession carries and advances once per consumed frame, so it
// rides shard migration with the stream.
//
// The cache only ever *skips* compute. Entries are written by the
// compute path itself, every replica computes identical arithmetic, and
// hits restore the exact snapshot that compute produced — so a resumed
// stream's logits and StreamEvents are bitwise identical to an uncached
// run, the invariant tests/test_cache.cpp enforces on every hit, miss,
// eviction, and migration path.
//
// The compute path writes an entry only on a prefix's *second*
// computation (admit(): the doorkeeper half of TinyLFU, Einziger,
// Friedman and Manes, ACM ToS 2017). Audio that never repeats — most
// live traffic — then costs one table probe per frame instead of a
// hidden-state snapshot copy, an allocation and an eviction, and a
// repeated utterance computes twice before its third run replays.
//
// Eviction is LRU under a byte budget. One instance is owned per
// InferenceEngine (ShardedEngine replicas therefore each own a private,
// shard-local cache) and is touched only by that engine's driving thread
// (the shard pump, or the synchronous caller) — no locking.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace rtmobile::cache {

/// Mixes two words (splitmix64 over their combination); hashes a
/// cursor's 128-bit signature into one table index.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) {
  std::uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12));
  return splitmix64(state);
}

/// Where in prefix space one stream currently is: the 128-bit signature
/// chain. Sessions carry one by value (it migrates with the stream) and
/// the engine advances it once per consumed feature frame — on the
/// compute path and the cache-hit path alike, so the chain always
/// describes the frames the hidden state actually evolved through.
struct PrefixCursor {
  std::uint64_t sig_lo = 0;
  std::uint64_t sig_hi = 0;

  /// Cursor for a stream about to consume its first frame: fingerprints
  /// the initial hidden state (exact bits), so models or states that
  /// differ can never share a prefix chain.
  [[nodiscard]] static PrefixCursor from_state(
      std::span<const float> state) {
    PrefixCursor c;
    c.sig_lo = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
    c.sig_hi = 0x9E3779B185EBCA87ULL;
    c.advance(state);
    return c;
  }

  /// Folds the exact bit pattern of one feature frame (or, from
  /// from_state, the initial hidden state) into the chain.
  void advance(std::span<const float> values) {
    std::uint64_t lo = sig_lo;
    std::uint64_t hi = sig_hi;
    for (const float v : values) {
      const auto bits = std::bit_cast<std::uint32_t>(v);
      lo = (lo ^ bits) * 0x100000001B3ULL;
      hi = (hi ^ bits) * 0xC2B2AE3D27D4EB4FULL;
    }
    sig_lo = lo;
    sig_hi = hi;
  }
};

struct CacheConfig {
  /// Off by default: the engine neither owns a cache nor pays any
  /// per-frame cost, and every pre-existing behavior is unchanged.
  bool enabled = false;
  /// LRU eviction threshold over the summed entry footprint. The newest
  /// entry is never evicted by its own insert, so a budget smaller than
  /// one entry behaves as a 1-entry cache rather than caching nothing.
  std::size_t byte_budget = 64U << 20;
};

class PrefixCache {
 public:
  explicit PrefixCache(const CacheConfig& config);

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// A prefix's 128-bit signature: the table key, compared in full.
  struct Key {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Key&) const = default;
  };

  struct Entry {
    std::vector<float> logits;  // the memoized per-step logits row
    std::vector<float> state;   // post-step hidden-state snapshot
    std::list<Key>::iterator lru;
  };

  /// What an insert did, for the caller's counters.
  struct InsertResult {
    std::size_t evicted = 0;      // entries evicted by the byte budget
    std::size_t bytes_added = 0;  // net new bytes resident (0 on refresh)
  };

  /// The entry for exactly `key`'s prefix, or null, in which case the
  /// caller falls through to compute. A hit refreshes the entry's LRU
  /// position.
  [[nodiscard]] const Entry* lookup(const PrefixCursor& key);

  /// Second-sighting admission, asked before the compute path memoizes
  /// a step: true when `key`'s prefix is already cached or was offered
  /// before; otherwise records this first sighting and returns false.
  /// A prefix whose first-sighting slot another took in between waits
  /// one sighting more.
  [[nodiscard]] bool admit(const PrefixCursor& key);

  /// Memoizes one step: `logits` is the row the model just produced for
  /// the prefix `key` describes, `state` the flattened hidden state
  /// after that step. Re-inserting an already-cached prefix only
  /// refreshes its LRU slot. Evicts LRU entries (never the one just
  /// inserted) until within budget.
  InsertResult insert(const PrefixCursor& key, std::span<const float> logits,
                      std::span<const float> state);

  /// Resident footprint a (logits_len, state_len) entry accounts for —
  /// what tests use to size exact-entry-count budgets.
  [[nodiscard]] static std::size_t entry_bytes(std::size_t logits_len,
                                               std::size_t state_len) {
    return (logits_len + state_len) * sizeof(float) + kEntryOverhead;
  }

  [[nodiscard]] std::size_t entries() const { return map_.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  /// Drops every entry and every first-sighting record (counters keep
  /// their totals).
  void clear();

  /// Slots in admit()'s first-sighting table (8 bytes each). More slots
  /// remember more prefixes between their first and second sighting, at
  /// the cost of resident memory and of cache footprint on the miss
  /// path; 2^15 (256 KiB) spans ~5 minutes of computed audio at 10 ms
  /// frames, summed over the engine's streams.
  static constexpr std::size_t kDoorkeeperSlots = std::size_t{1} << 15;

 private:
  /// Bookkeeping charge per entry beyond the float payloads (hash node,
  /// LRU node, vector headers) — an estimate, held constant so budget
  /// arithmetic is deterministic.
  static constexpr std::size_t kEntryOverhead = 128;

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return mix64(key.lo, key.hi);
    }
  };

  void evict_lru();

  CacheConfig config_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::list<Key> lru_;  // front = most recently used
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  // Signature tag (sig_hi | 1, so 0 marks an empty slot) of the last
  // prefix offered to admit() per slot sig_lo % kDoorkeeperSlots.
  std::vector<std::uint64_t> doorkeeper_;
};

}  // namespace rtmobile::cache
