// Latency/throughput accounting for the streaming runtime.
//
// LatencyRecorder defaults to keeping every sample so quantiles are
// exact. A long-lived engine records one sample per step for its whole
// life, so InferenceEngine caps its recorders at kStatsSampleCap. A
// positive cap switches the recorder to deterministic systematic
// decimation: once the retained set reaches the cap, every other
// retained sample is dropped and the sampling stride doubles, so the
// recorder holds a uniform 1-in-stride subsample of the whole stream in
// bounded memory. Below the cap (and
// always with cap 0) behavior is bit-identical to the exact recorder,
// including merges.
//
// RuntimeStats aggregates what the serving story needs: p50/p95 step
// latency, frames/sec, the real-time factor (audio seconds processed per
// wall second — > 1 means faster than real time), and the deadline
// scheduler's overload view: per-step worst stream lag (p99-able),
// deadline-miss / shed-frame counters, and rejected streams. An engine's
// stats() reads its /metrics counter cells and its exact recorders.
#pragma once

#include <cstddef>
#include <vector>

namespace rtmobile::runtime {

/// The retained-sample cap of every InferenceEngine recorder.
inline constexpr std::size_t kStatsSampleCap = 65536;

class LatencyRecorder {
 public:
  LatencyRecorder() = default;
  /// cap = 0 keeps every sample (exact quantiles and merges — the
  /// default); cap >= 2 bounds retained samples via deterministic
  /// decimation (see file comment).
  explicit LatencyRecorder(std::size_t cap) { set_cap(cap); }

  /// Sets the retained-sample cap (0 = unbounded). Thins immediately if
  /// the retained set already exceeds the new cap.
  void set_cap(std::size_t cap);
  [[nodiscard]] std::size_t cap() const { return cap_; }

  void record(double value_us);

  /// Samples observed (recorded), independent of decimation.
  [[nodiscard]] std::size_t count() const { return observed_; }
  /// Samples currently retained (== count() while exact).
  [[nodiscard]] std::size_t retained() const { return samples_.size(); }
  /// Mean over the retained samples (exact mean while undecimated).
  [[nodiscard]] double mean_us() const;
  /// Quantile by nearest-rank over the retained samples; q in [0, 1].
  /// Exact while undecimated; a uniform-subsample estimate after
  /// decimation. Returns 0 when empty.
  [[nodiscard]] double quantile_us(double q) const;
  [[nodiscard]] double p50_us() const { return quantile_us(0.50); }
  [[nodiscard]] double p95_us() const { return quantile_us(0.95); }
  [[nodiscard]] double p99_us() const { return quantile_us(0.99); }

  /// Absorbs another recorder's samples. While both sides are
  /// undecimated (every uncapped recorder, and capped ones still below
  /// cap) the merge is exact: quantiles of merge(a, b) equal quantiles
  /// over the union of a's and b's samples — the identity cross-shard
  /// aggregation relies on. A decimated merge keeps both retained sets,
  /// adopts the coarser stride, and re-thins if over cap.
  void merge_from(const LatencyRecorder& other);

  /// Clears samples; the cap is kept.
  void reset();

 private:
  /// Drops every other retained sample and doubles the stride.
  void thin();

  std::vector<double> samples_;
  std::size_t cap_ = 0;        // 0 = keep everything
  std::size_t observed_ = 0;   // total record() calls
  std::size_t stride_ = 1;     // 1-in-stride systematic sampling
  std::size_t next_keep_ = 1;  // 1-based observation index to retain next
};

struct RuntimeStats {
  LatencyRecorder step_latency;   // one sample per InferenceEngine::step
  /// One sample per scheduling round that found a ready frame: the worst
  /// head-frame wait (us) across streams at that instant. Its p99 is the
  /// overload bench's tail-lag metric.
  LatencyRecorder lag;
  std::size_t frames_processed = 0;
  std::size_t steps = 0;
  double busy_us = 0.0;           // wall time spent inside step()
  double audio_seconds = 0.0;     // audio represented by processed frames
  /// Frames served after waiting past their stream's deadline budget.
  std::size_t deadline_misses = 0;
  /// Frames dropped by the overload policy (shed or reject).
  std::size_t shed_frames = 0;
  /// Streams terminated by OverloadPolicy::kReject.
  std::size_t rejected_streams = 0;
  /// Prefix-cache accounting (all zero while EngineConfig::cache is
  /// off). Hits are frames served straight from the cache; misses are
  /// frames that fell through to model compute with the cache enabled,
  /// so hits + misses == frames_processed on a cache-enabled engine.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Entries evicted by the cache's byte budget.
  std::size_t cache_evictions = 0;
  /// Resident cache footprint in bytes (a level, republished after every
  /// round that touched the cache, kept by InferenceEngine::reset_stats;
  /// merging sums shard residency).
  std::size_t cache_bytes = 0;
  /// Scheduling rounds whose compute batch ran the fused batched-matmat
  /// spine, and rounds that fell back to the per-stream matvec path.
  /// fused_steps + fallback_steps counts every round that dispatched
  /// step_batch (cache-only rounds dispatch none, so it can be less
  /// than `steps`).
  std::size_t fused_steps = 0;
  std::size_t fallback_steps = 0;
  /// One sample per fused round: the compute panel's width (streams
  /// advanced by that fused step) — the batch-occupancy signal that
  /// says how much weight traffic the fusion is actually amortizing.
  LatencyRecorder fused_width;

  [[nodiscard]] double frames_per_second() const {
    return busy_us > 0.0
               ? static_cast<double>(frames_processed) / (busy_us * 1e-6)
               : 0.0;
  }
  /// Aggregate real-time factor across all streams.
  [[nodiscard]] double real_time_factor() const {
    return busy_us > 0.0 ? audio_seconds / (busy_us * 1e-6) : 0.0;
  }
  [[nodiscard]] double mean_batch() const {
    return steps > 0 ? static_cast<double>(frames_processed) /
                           static_cast<double>(steps)
                     : 0.0;
  }
  /// Deadline misses per frame served (the overload bench's miss rate).
  [[nodiscard]] double miss_rate() const {
    return frames_processed > 0
               ? static_cast<double>(deadline_misses) /
                     static_cast<double>(frames_processed)
               : 0.0;
  }

  /// Accumulates another engine's stats into this one. Counters add and
  /// latency samples concatenate, so merging the stats of disjoint
  /// workload splits yields exactly the stats of the whole workload.
  void merge_from(const RuntimeStats& other) {
    step_latency.merge_from(other.step_latency);
    lag.merge_from(other.lag);
    frames_processed += other.frames_processed;
    steps += other.steps;
    busy_us += other.busy_us;
    audio_seconds += other.audio_seconds;
    deadline_misses += other.deadline_misses;
    shed_frames += other.shed_frames;
    rejected_streams += other.rejected_streams;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
    cache_bytes += other.cache_bytes;
    fused_steps += other.fused_steps;
    fallback_steps += other.fallback_steps;
    fused_width.merge_from(other.fused_width);
  }

  /// Fraction of served frames that skipped compute (0 with no cache).
  [[nodiscard]] double cache_hit_rate() const {
    const std::size_t looked = cache_hits + cache_misses;
    return looked > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(looked)
               : 0.0;
  }
};

}  // namespace rtmobile::runtime
