// The unified serving surface: audio in, incremental hypotheses out.
//
// A Recognizer is what a speech client codes against — one abstract
// stream API implemented by both LocalRecognizer (a single
// InferenceEngine wrapping one CompiledSpeechModel) and ShardedEngine
// (N engine replicas behind a router), so the exact same client code
// runs against one engine or a sharded fleet:
//
//   StreamHandle h = recognizer.open_stream({});        // router decides
//   while (audio) recognizer.submit_audio(h, chunk);    // backpressured
//   recognizer.finish_stream(h);
//   ... recognizer.poll_events(h, events);              // partials stream
//   // final hypothesis = concatenation of every event's stable delta
//
// Every stream carries an incremental speech::StreamingDecoder; its
// StreamEvents (stable decoded prefix + unstable partial tail) are the
// product output, with the final hypothesis bit-identical to the batch
// greedy_decode / viterbi_decode of the stream's logits. Events are a
// pure function of the logit-row stream, so they are identical across
// implementations, chunk sizes, shard placements, and live migrations.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "speech/streaming_decoder.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile::serve {

/// Opaque ticket for one client stream, valid for the Recognizer that
/// issued it.
struct StreamHandle {
  std::uint64_t id = 0;
};

/// Why try_open_stream did (or did not) admit a stream. A transport maps
/// each failure to a distinct wire error instead of inferring the cause
/// from a bool or an invalid handle.
enum class OpenStatus : std::uint8_t {
  kOk,
  /// Open-time admission control refused the stream: the deployment's
  /// projected lag already exceeds the stream's deadline budget, so
  /// serving it would only waste compute on frames it is bound to shed.
  /// Only streams that ask for a deadline (config.deadline.enabled())
  /// are ever refused this way.
  kRejectedOverBudget,
  /// The admission path itself is congested (e.g. a shard's ingress ring
  /// is full). Transient: the caller retries or surfaces backpressure.
  kBackpressure,
};

[[nodiscard]] const char* to_string(OpenStatus status);

/// try_open_stream's result: `handle` is valid only when `status == kOk`.
struct OpenResult {
  StreamHandle handle;
  OpenStatus status = OpenStatus::kOk;

  [[nodiscard]] bool ok() const { return status == OpenStatus::kOk; }
};

/// Per-stream options a client passes at open time.
struct StreamConfig {
  /// In-loop decoding. The default emits greedy partial hypotheses;
  /// kViterbi upgrades to the duration-penalty DP; kNone collects logits
  /// only (no events).
  speech::StreamingDecoderConfig decode;
  /// Real-time budget: how long the stream's oldest queued audio may
  /// wait before the engine's overload policy may shed its overdue
  /// frames or reject the stream (0 = no deadline; the default).
  runtime::StreamDeadline deadline;
  /// Client affinity key for the session-hash routing policy (sharded
  /// implementations; a single engine ignores it).
  std::uint64_t session_key = 0;
};

/// Per-stream deadline accounting snapshot (see StreamingSession's
/// real-time clock model).
struct StreamDeadlineStats {
  /// How long the stream's oldest queued frame has been waiting, in
  /// seconds (0 when caught up). Sharded implementations report the
  /// value last published by the stream's pump.
  double lag_seconds = 0.0;
  std::size_t shed_frames = 0;      // frames dropped by shed/reject
  std::size_t deadline_misses = 0;  // frames served past the budget
  bool rejected = false;            // terminated by OverloadPolicy::kReject
};

/// Fleet serving statistics: every shard's RuntimeStats merged exactly
/// (any disjoint split of a workload merges back to the whole). Shards
/// run concurrently, so throughput is reported two ways: capacity
/// (`aggregate_fps`) and over a measured wall window (`wall_fps`).
struct GlobalStats {
  runtime::RuntimeStats merged;  // counters summed, samples concatenated
  std::size_t shards = 0;
  double aggregate_fps = 0.0;  // sum over shards of frames / busy seconds
  double wall_us = 0.0;        // serving window; 0 when not measured
  /// Compiled weight storage (values + indices + quantization scales)
  /// of the one compiled model every shard serves, counted once however
  /// many shards share it; CompilerOptions::precision shrinks it 2-4x.
  std::size_t weight_bytes = 0;

  /// Folds one shard's stats into the fleet view.
  void add_shard(const runtime::RuntimeStats& stats) {
    merged.merge_from(stats);
    shards += 1;
    aggregate_fps += stats.frames_per_second();
  }

  /// Frames per wall-clock second over the measured window (0 when no
  /// window was recorded).
  [[nodiscard]] double wall_fps() const {
    return wall_us > 0.0
               ? static_cast<double>(merged.frames_processed) /
                     (wall_us * 1e-6)
               : 0.0;
  }
  /// Audio seconds served per wall second over the measured window.
  [[nodiscard]] double wall_real_time_factor() const {
    return wall_us > 0.0 ? merged.audio_seconds / (wall_us * 1e-6) : 0.0;
  }
};

/// A hypothesis update tagged with the stream it belongs to (the
/// drain-all poll's result element).
struct RecognizerEvent {
  StreamHandle stream;
  speech::StreamEvent event;
};

class Recognizer {
 public:
  virtual ~Recognizer() = default;

  // ---- stream lifecycle ----
  /// Attempts to admit a new stream, reporting the outcome as a typed
  /// status instead of throwing or spinning. When the stream carries a
  /// deadline budget (config.deadline.enabled()), implementations apply
  /// open-time admission control: if the deployment's projected lag (the
  /// worst head-frame wait the serving target last reported) already
  /// exceeds that budget, the stream is refused with
  /// kRejectedOverBudget — degrading gracefully before compute is spent
  /// on frames the overload policy would immediately shed. kBackpressure
  /// reports transient admission congestion (retry).
  [[nodiscard]] virtual OpenResult try_open_stream(
      const StreamConfig& config) = 0;
  /// Admits a new stream and returns its ticket: a thin wrapper over
  /// try_open_stream that retries kBackpressure (yielding between
  /// attempts) and throws std::runtime_error on kRejectedOverBudget —
  /// transports that need to degrade instead of throw call
  /// try_open_stream directly.
  [[nodiscard]] StreamHandle open_stream(const StreamConfig& config);
  [[nodiscard]] StreamHandle open_stream() {
    return open_stream(StreamConfig{});
  }
  /// Feeds an audio chunk. Returns false under ingress backpressure (the
  /// caller retries or drops); audio submitted after finish_stream is
  /// dropped. Throws on a dead stream/serving failure.
  [[nodiscard]] virtual bool submit_audio(StreamHandle h,
                                          std::span<const float> samples) = 0;
  /// Marks end of audio; the decoder finalizes once the tail is served.
  /// Same backpressure contract as submit_audio.
  [[nodiscard]] virtual bool finish_stream(StreamHandle h) = 0;
  /// Releases the stream's resources once the client has read what it
  /// needs; the handle is dead afterwards. Closing a live stream
  /// abandons it. Same backpressure contract as submit_audio.
  [[nodiscard]] virtual bool close_stream(StreamHandle h) = 0;

  // ---- hypothesis events ----
  /// Appends the stream's pending events to `out` (oldest first);
  /// returns how many were appended.
  virtual std::size_t poll_events(StreamHandle h,
                                  std::vector<speech::StreamEvent>& out) = 0;
  /// Drain-all: appends every stream's pending events, each tagged with
  /// its handle; returns how many were appended. Deterministic order:
  /// streams appear in ascending handle id (per-stream event order
  /// preserved), identical across implementations and runs.
  virtual std::size_t poll_events(std::vector<RecognizerEvent>& out) = 0;
  /// Blocks until at least one stream has a pending event or `timeout`
  /// elapses; returns true when events are (or may be) pending, false on
  /// timeout. The event-loop hook: a transport's poll thread sleeps here
  /// instead of spin-polling poll_events.
  ///
  /// Wakeup contract: implementations are condition-variable backed and
  /// signal whenever serving publishes new events — ShardedEngine's
  /// pumps notify after every scheduling round that flushed events;
  /// LocalRecognizer notifies from the drain()/step() that produced
  /// them (so in the single-threaded deployment, where the caller of
  /// drain() is the only thread, a true return simply means "poll now").
  /// Spurious wakeups are allowed, and a true return does not reserve
  /// the events — a concurrent poller may drain them first. False
  /// guarantees only that no event was pending for one full timeout.
  virtual bool wait_for_events(std::chrono::microseconds timeout) = 0;

  // ---- completion & results ----
  /// True once the stream's audio is finished and every frame served
  /// (its final event has been emitted).
  [[nodiscard]] virtual bool stream_done(StreamHandle h) const = 0;
  /// The stream's deadline accounting: current lag, frames shed by the
  /// overload policy, deadline misses, and whether it was rejected.
  [[nodiscard]] virtual StreamDeadlineStats stream_deadline_stats(
      StreamHandle h) const = 0;
  /// The stream's raw logit rows so far (whole matrix once done) — the
  /// escape hatch for clients that decode externally.
  [[nodiscard]] virtual Matrix stream_logits(StreamHandle h) const = 0;

  // ---- caller-driven serving ----
  /// Serves everything submitted so far and returns frames stepped.
  /// Implementations with their own serving threads (a started
  /// ShardedEngine) reject this — the pumps already drain continuously.
  virtual std::size_t drain() = 0;

  // ---- fleet view ----
  [[nodiscard]] virtual GlobalStats stats() const = 0;
  virtual void reset_stats() = 0;
};

}  // namespace rtmobile::serve
