// Batched streaming inference engine: many concurrent audio streams, one
// CompiledSpeechModel.
//
// Each scheduling round (step) gathers at most one ready feature frame
// from up to max_batch sessions, stacks them into a single timestep
// batch, and advances all of those streams with one
// CompiledSpeechModel::step_batch call on the engine's own panels —
// which partitions the rows across the engine's thread pool
// (EngineConfig::pool), so cross-stream work saturates cores even when
// each stream's matvecs are too small to thread individually. Logit rows
// are scattered back to their sessions. Each serving event is counted
// once, in obs::EngineCells that both stats() and /metrics read.
//
// Which sessions a round serves is governed by a SchedulerPolicy:
// round-robin (the bit-identical historical default) scans from a
// rotating cursor; earliest-deadline-first and lag-aware order ready
// streams by how close each is to blowing its per-stream StreamDeadline
// budget or by how far behind real time its oldest frame already is.
// Under an OverloadPolicy the engine also acts on streams past their
// budget — shedding their overdue frames (kDegraded event) or rejecting
// the stream outright (kRejected event) — which is what bounds tail lag
// when offered load exceeds capacity. Every round additionally records
// the worst head-frame wait across ready streams into RuntimeStats::lag
// and counts deadline misses, for all policies, so round-robin's tail
// behavior under overload is measurable against the deadline-aware
// policies.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "compiler/gru_executor.hpp"
#include "obs/telemetry.hpp"
#include "runtime/clock.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "runtime/streaming_session.hpp"
#include "speech/streaming_mfcc.hpp"

namespace rtmobile::fault {
class FaultInjector;
}

namespace rtmobile::runtime {

struct EngineConfig {
  /// Maximum streams advanced per step. Bounds tail latency: a stream
  /// never waits on more than max_batch - 1 peers per timestep.
  std::size_t max_batch = 32;
  /// How a scheduling round picks the streams it serves.
  SchedulerPolicy scheduler = SchedulerPolicy::kRoundRobin;
  /// What happens to streams that exceed their deadline budget, under
  /// any scheduler (kNone = accounting only).
  OverloadPolicy overload = OverloadPolicy::kNone;
  /// Time source for arrival stamps and lag (must outlive the engine);
  /// null = the shared-epoch monotonic wall clock.
  EngineClock* clock = nullptr;
  /// Threads step() runs the model over, sized to the model's
  /// CompilerOptions::threads (not owned; must outlive the engine); null
  /// = the stepping thread computes alone.
  ThreadPool* pool = nullptr;
  /// Observability sink (histograms, span traces, and the /metrics
  /// families summing every attached engine's counter cells); null (the
  /// default) costs one branch. Must outlive the engine.
  obs::Telemetry* telemetry = nullptr;
  /// Fault-injection harness (nullable — the production default). When
  /// set, step() asks the kEngineStep site before touching any state, so
  /// an injected fault leaves sessions replayable. `fault_key` is the
  /// identity the engine reports (ShardedEngine sets it to the shard
  /// index so a spec can kill one replica). Must outlive the engine.
  fault::FaultInjector* fault = nullptr;
  std::uint64_t fault_key = ~std::uint64_t{0};
  /// Prefix result cache (off by default). When enabled the engine owns
  /// a private cache::PrefixCache — one per engine, so each serving
  /// shard's replica caches shard-locally — and step() serves frames
  /// whose prefix chain matches a cached trajectory without touching
  /// step_batch (bit-identical by construction; the cache only skips
  /// compute). The kCacheLookup fault site gates every lookup, so an
  /// injected cache failure degrades to plain compute.
  cache::CacheConfig cache;
  /// Front end of every session (CMN disabled — it is whole-utterance
  /// and cannot stream). The engine builds its tables once, at
  /// construction, and its sessions share them.
  speech::MfccConfig mfcc = [] {
    speech::MfccConfig config;
    config.cepstral_mean_norm = false;
    return config;
  }();
};

class InferenceEngine {
 public:
  /// `model` must outlive the engine and is only read: other engines
  /// may serve it at the same time. step_batch parallelizes over
  /// `config.pool` (if any).
  explicit InferenceEngine(const CompiledSpeechModel& model,
                           EngineConfig config = EngineConfig{});
  /// Retires the counter cells into the Telemetry's totals.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;  // cells_ attached
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Admits a new stream (no in-loop decoding). Every session runs the
  /// front end of EngineConfig::mfcc on the engine's one extractor.
  StreamingSession& create_session();
  /// Admits a new stream with a streaming decoder (decode.mode == kNone
  /// collects logits only).
  StreamingSession& create_session(
      const speech::StreamingDecoderConfig& decode);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] StreamingSession& session(std::size_t index);

  /// One scheduling round: advances up to max_batch streams by one frame,
  /// picked per the configured SchedulerPolicy (after the OverloadPolicy
  /// has shed or rejected streams past their budget). Returns the batch
  /// size (0 when no stream had a ready frame).
  ///
  /// Compute-panel stream order (pinned contract): the batch handed to
  /// CompiledSpeechModel::step_batch is exactly the scheduler's gather
  /// order — active_[b] becomes panel row b. When the model's fused
  /// batched step runs, that order is the panels' row order, so fp32
  /// output is bit-identical run to run under the deterministic
  /// round-robin default; cache-hit bursts and shed/finished streams
  /// simply never enter active_, shrinking the fused panel for that
  /// round. Whether a round fused or fell back (and the fused width) is
  /// counted once, for stats() and the rt_fused_* families alike.
  std::size_t step();

  /// Pumps step() until no session has a ready frame; returns total
  /// frames processed. With all audio pushed and sessions finished, this
  /// completes every stream.
  std::size_t drain();

  /// Removes sessions that are done (audio finished, queue empty).
  /// Returns how many were reaped; live sessions keep their order and
  /// the round-robin cursor keeps pointing at the same next stream.
  std::size_t remove_done();

  // ---- cross-engine session transfer (shard migration) ----
  /// Detaches the session at `index` and returns ownership; remaining
  /// sessions keep their relative order (and their place in the
  /// round-robin scan). The session keeps referencing the model it was
  /// created on, so only an engine serving that model can adopt it.
  [[nodiscard]] std::unique_ptr<StreamingSession> release_session(
      std::size_t index);
  /// Same, addressed by the session pointer this engine handed out.
  [[nodiscard]] std::unique_ptr<StreamingSession> release_session(
      const StreamingSession* session);
  /// Takes ownership of a session released from another engine serving
  /// the same CompiledSpeechModel (a session of any other model throws
  /// std::invalid_argument), moving it onto this engine's clock. Its
  /// hidden state, queued frames (arrival stamps included), and logits
  /// carry over untouched.
  StreamingSession& adopt_session(std::unique_ptr<StreamingSession> session);

  // ---- load signals for shard routing ----
  /// Feature frames queued across all sessions and not yet stepped (the
  /// engine-internal backlog a shard publishes to its router).
  [[nodiscard]] std::size_t pending_frames() const;
  /// Worst head-frame wait across sessions right now, in seconds — the
  /// lag signal a shard publishes so the router can prefer the shard
  /// whose worst stream is least behind. 0 when nothing is queued.
  [[nodiscard]] double max_lag_seconds();

  /// The counter cells and recorders, read on the thread driving step()
  /// (or with it stopped).
  [[nodiscard]] RuntimeStats stats() const;
  /// Zeroes counters and recorders (not cache residency, a level); the
  /// Telemetry keeps the counts as retired totals.
  void reset_stats();

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// The one MFCC extractor every session of this engine runs.
  [[nodiscard]] const speech::MfccExtractor& front_end() const {
    return *mfcc_;
  }
  /// The engine's time source (the configured override or the built-in
  /// wall clock) — what sessions stamp arrivals with.
  [[nodiscard]] EngineClock& clock() {
    return config_.clock != nullptr ? *config_.clock : wall_clock_;
  }

  /// The compiled model this engine serves — capacity planners read its
  /// weight precision and storage footprint from here.
  [[nodiscard]] const CompiledSpeechModel& model() const { return model_; }

  /// The engine's prefix result cache (null when EngineConfig::cache is
  /// off) — tests and shard rebalancers read residency/eviction totals
  /// from here; per-frame hit/miss accounting lives in stats().
  [[nodiscard]] const cache::PrefixCache* cache() const {
    return cache_.get();
  }

 private:
  /// Serves every stream whose next frame(s) hit the prefix cache:
  /// restores the memoized post-step state, emits the memoized logits
  /// row, and pops the frame — no model compute. Returns frames served;
  /// accumulates their audio seconds into `audio_seconds`.
  std::size_t serve_cached(double& audio_seconds);
  /// Sheds/rejects streams past their budget per the overload policy.
  void apply_overload(double now_us);
  /// Fills active_ per the deadline-aware schedulers (EDF / lag-aware).
  void gather_by_priority();
  /// Records the per-round worst head-frame wait and counts deadline
  /// misses on the streams about to be served. Accounting only — never
  /// changes what was scheduled.
  void account_lag(double now_us);

  const CompiledSpeechModel& model_;
  EngineConfig config_;
  /// The one MFCC extractor (window, FFT plan, mel bank, DCT tables) of
  /// config_.mfcc. Sessions hold it too, so a session migrated to
  /// another engine keeps it alive.
  std::shared_ptr<const speech::MfccExtractor> mfcc_;
  WallClock wall_clock_;  // fallback when config_.clock is null
  std::vector<std::unique_ptr<StreamingSession>> sessions_;
  std::size_t next_id_ = 0;
  std::size_t round_robin_ = 0;  // fairness cursor over sessions_
  obs::EngineCells cells_;
  LatencyRecorder step_latency_{kStatsSampleCap};
  LatencyRecorder lag_{kStatsSampleCap};
  LatencyRecorder fused_width_{kStatsSampleCap};
  // Reused batch buffers, grown only when a step's batch exceeds them.
  Matrix batch_features_;
  Matrix batch_logits_;
  CompiledSpeechModel::Panels panels_;  // step_batch's scratch
  std::vector<StreamingSession*> active_;
  std::vector<StreamState*> states_;
  /// Priority-gather scratch: every ready session, sorted by deadline or
  /// lag (reused across steps like the batch buffers).
  std::vector<StreamingSession*> ready_;
  /// Prefix result cache (null unless config_.cache.enabled). Engine-
  /// owned: each serving shard's engine gets its own shard-local
  /// instance, touched only by the thread driving step().
  std::unique_ptr<cache::PrefixCache> cache_;
  /// Flattened hidden-state scratch for cache inserts (reused per step).
  std::vector<float> cache_state_scratch_;
};

}  // namespace rtmobile::runtime
