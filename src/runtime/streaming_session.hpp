// One live audio stream being recognized through a shared compiled model.
//
// A session owns the stream-local pieces of inference: the incremental
// MFCC front end, the queue of feature frames awaiting a model step, the
// GRU hidden state carried across chunks, the logits produced so far,
// and — when a decode mode is configured — an incremental
// speech::StreamingDecoder fed each logit row as the engine produces it,
// whose StreamEvents (stable prefix + unstable tail) buffer here until
// the serving layer polls them. It does no model computation itself —
// the InferenceEngine pulls ready frames from many sessions, batches
// them into one timestep, and pushes the resulting logit rows back.
//
// The session also carries the real-time clock model the deadline
// scheduler reads: every queued feature frame is stamped with its
// arrival time (the EngineClock reading when the audio that completed it
// was pushed), lag_seconds() reports how long the oldest queued frame
// has been waiting — how far the stream has fallen behind the audio
// clock — and a StreamDeadline budget bounds the wait the stream
// tolerates. When the engine's overload policy acts, the session either
// sheds its overdue frames (shed_overdue, emitting a kDegraded control
// event) or is terminated outright (reject, emitting kRejected); control
// events queue here alongside the decoder's hypothesis events.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "compiler/gru_executor.hpp"
#include "runtime/clock.hpp"
#include "runtime/scheduler.hpp"
#include "speech/streaming_decoder.hpp"
#include "speech/streaming_mfcc.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile::obs {
class Telemetry;
}

namespace rtmobile::runtime {

class StreamingSession {
 public:
  /// `model` must outlive the session. `mfcc` is the front end's
  /// extractor, shared with the engine's other sessions (CMN disabled);
  /// its feature dimension must match the model's input. `decode.mode`
  /// selects in-loop decoding (kNone = logits only).
  StreamingSession(std::size_t id, const CompiledSpeechModel& model,
                   std::shared_ptr<const speech::MfccExtractor> mfcc,
                   const speech::StreamingDecoderConfig& decode);

  [[nodiscard]] std::size_t id() const { return id_; }
  /// The front end's extractor (the engine's, shared by its sessions).
  [[nodiscard]] const speech::MfccExtractor& front_end() const {
    return mfcc_.extractor();
  }

  /// The compiled model the session was created on. A session migrates
  /// only between engines serving this same model.
  [[nodiscard]] const CompiledSpeechModel& model() const { return model_; }

  /// Feeds an audio chunk (any size); newly completed feature frames are
  /// queued for the engine, stamped with the clock's current time.
  /// Audio pushed after a reject is dropped.
  void push_audio(std::span<const float> samples);

  /// Marks end of audio: the tail frames held back for Δ lookahead are
  /// released.
  void finish();

  /// Audio ended (finish() called, or the stream was rejected).
  [[nodiscard]] bool finished() const {
    return rejected_ || mfcc_.finished();
  }

  /// Audio ended and every queued frame has been processed (or the
  /// stream was rejected).
  [[nodiscard]] bool done() const {
    return rejected_ || (mfcc_.finished() && pending_.empty() &&
                         mfcc_.ready_frames() == 0);
  }

  // ---- engine-facing frame queue ----
  [[nodiscard]] bool frame_ready() const { return !pending_.empty(); }
  /// Feature frames queued and not yet stepped (a queue-depth signal).
  [[nodiscard]] std::size_t pending_frames() const { return pending_.size(); }
  [[nodiscard]] std::span<const float> front_frame() const;
  void pop_frame();
  [[nodiscard]] StreamState& state() { return state_; }

  /// Appends one logits row produced for this stream's oldest frame.
  void append_logits(std::span<const float> row);

  // ---- prefix-cache state (engine-driven) ----
  /// The stream's rolling prefix identity: seeded from the initial
  /// hidden state at admission, advanced by the engine once per consumed
  /// frame (compute and cache-hit paths alike). By-value member, so it
  /// migrates with the session across shards.
  [[nodiscard]] cache::PrefixCursor& prefix_cursor() {
    return prefix_cursor_;
  }
  /// Floats in a flattened hidden-state snapshot (layers x hidden).
  [[nodiscard]] std::size_t state_size() const;
  /// Flattens the hidden state into `out` (resized to state_size()) —
  /// the snapshot the cache memoizes beside each logits row.
  void capture_state(std::vector<float>& out) const;
  /// Overwrites the hidden state from a snapshot — the cache-hit resume
  /// path. The snapshot was captured by the compute path on an identical
  /// replica, so the restored state is bitwise what compute would have
  /// produced.
  void restore_state(std::span<const float> snapshot);

  // ---- real-time clock model ----
  /// Wires the time source arrival stamps are taken from. The engine
  /// sets this at admission and again on adoption (shard migration);
  /// without a clock, stamps are 0 and lag reads 0.
  void set_clock(EngineClock* clock) { clock_ = clock; }
  /// Wires the observability sink (the engine sets this alongside the
  /// clock); null = no spans. The front-end (mfcc) stage is timed here
  /// because feature extraction happens inside push_audio, not in the
  /// engine's step.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  /// How long the oldest queued frame has been waiting, in seconds —
  /// how far the stream has fallen behind the audio clock. 0 when no
  /// frame is queued (the stream is caught up).
  [[nodiscard]] double lag_seconds();
  /// Oldest queued frame's wait in microseconds against a caller-read
  /// "now" (the engine reads the clock once per scheduling round).
  /// Requires frame_ready().
  [[nodiscard]] double frame_wait_us(double now_us) const;
  /// Arrival stamp of the oldest queued frame. Requires frame_ready().
  [[nodiscard]] double oldest_arrival_us() const;

  void set_deadline(const StreamDeadline& deadline) { deadline_ = deadline; }
  [[nodiscard]] const StreamDeadline& deadline() const { return deadline_; }

  // ---- overload actions (engine-driven) ----
  /// Drops every queued frame that has waited longer than the deadline
  /// budget, snapping the stream back under it. Emits one kDegraded
  /// control event when anything was dropped; returns the drop count.
  std::size_t shed_overdue(double now_us);
  /// Terminates the stream: every queued frame is dropped, further audio
  /// is refused, the decoder (if any) finalizes over the frames already
  /// served, and a terminal kRejected control event is emitted. Returns
  /// the frames dropped. Idempotent.
  std::size_t reject();
  [[nodiscard]] bool rejected() const { return rejected_; }

  // ---- per-stream deadline accounting ----
  /// Frames dropped by shed_overdue()/reject() over the stream's life.
  [[nodiscard]] std::size_t shed_frames() const { return shed_frames_; }
  /// Frames served after waiting past the deadline budget.
  [[nodiscard]] std::size_t deadline_misses() const {
    return deadline_misses_;
  }
  /// Engine-side accounting hook: the frame being served this round
  /// waited past the budget.
  void note_deadline_miss() { ++deadline_misses_; }

  // ---- streaming decode ----
  /// True when the session decodes in-loop (mode != kNone).
  [[nodiscard]] bool decoding() const { return decoder_.has_value(); }
  /// Events not yet polled: decoder hypotheses plus control events
  /// (0 for non-decoding sessions that were never shed or rejected).
  [[nodiscard]] std::size_t pending_events() const {
    return queued_events_.size() +
           (decoder_.has_value() ? decoder_->pending_events() : 0);
  }
  /// Appends pending events to `out` in emission order (hypothesis and
  /// control events interleaved as they happened, so each stream's
  /// `frames` stamps are monotonic); returns the count.
  std::size_t poll_events(std::vector<speech::StreamEvent>& out);
  /// The live decoder (requires decoding()).
  [[nodiscard]] const speech::StreamingDecoder& decoder() const;
  /// Stable prefix + unstable tail right now (requires decoding()).
  [[nodiscard]] std::vector<std::uint16_t> hypothesis() const;

  // ---- results / accounting ----
  [[nodiscard]] std::size_t frames_processed() const { return frames_done_; }
  /// Seconds of audio represented by the processed frames.
  [[nodiscard]] double audio_seconds_processed() const;
  /// Seconds of audio one feature frame represents (the hop size).
  [[nodiscard]] double seconds_per_frame() const;
  /// All logit rows so far as a [frames_processed x num_classes] matrix.
  [[nodiscard]] Matrix logits() const;

 private:
  void drain_front_end();
  /// Finishes the decoder once the last logit row has been produced (the
  /// decoder's tail can only be finalized when no more rows can come).
  void maybe_finish_decoder();
  void push_control_event(speech::StreamEventKind kind,
                          std::size_t dropped, bool is_final);

  std::size_t id_;
  const CompiledSpeechModel& model_;
  speech::StreamingMfcc mfcc_;
  std::deque<std::vector<float>> pending_;  // feature frames awaiting a step
  /// Arrival stamp per queued frame (parallel to pending_).
  std::deque<double> arrival_us_;
  StreamState state_;
  /// Rolling prefix-cache identity (see prefix_cursor()).
  cache::PrefixCursor prefix_cursor_;
  std::vector<float> logits_;  // row-major [frames_done_ x num_classes]
  std::size_t frames_done_ = 0;
  /// In-loop decoder; migrates with the session (its stable prefix, DP
  /// state, and unpolled events all live here).
  std::optional<speech::StreamingDecoder> decoder_;

  // Real-time clock model + deadline accounting.
  EngineClock* clock_ = nullptr;  // non-owning; engine-wired
  obs::Telemetry* telemetry_ = nullptr;  // non-owning; engine-wired
  StreamDeadline deadline_;
  bool rejected_ = false;
  std::size_t shed_frames_ = 0;
  std::size_t deadline_misses_ = 0;
  /// Session-level event queue: scheduler control events, plus decoder
  /// events folded in ahead of each control push so emission order
  /// survives (the decoder's own queue holds only what it emitted since
  /// the last control event). Migrates with the session.
  std::vector<speech::StreamEvent> queued_events_;
};

}  // namespace rtmobile::runtime
