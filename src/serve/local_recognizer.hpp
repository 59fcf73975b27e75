// Recognizer over one InferenceEngine + its CompiledSpeechModel.
//
// The single-engine implementation of the unified serving surface: the
// smallest deployment (one compiled model, one engine, caller-driven
// stepping) speaks the exact same stream API as the sharded fleet, so a
// client outgrowing one engine swaps the constructor, not its code.
// Single-threaded by design — the caller that submits audio also calls
// drain(); for concurrent producers and background pumping, use
// ShardedEngine (even with shards = 1).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/timer.hpp"
#include "runtime/inference_engine.hpp"
#include "serve/recognizer.hpp"

namespace rtmobile::serve {

class LocalRecognizer final : public Recognizer {
 public:
  /// `model` must outlive the recognizer; step batches parallelize over
  /// `config.pool` (if any).
  explicit LocalRecognizer(const CompiledSpeechModel& model,
                           runtime::EngineConfig config = {});

  /// Open-time admission: when the stream asks for a deadline, the
  /// engine's current worst head-frame wait is the projected lag — a
  /// stream opened while the engine is already further behind than the
  /// requested budget is refused with kRejectedOverBudget. An in-memory
  /// engine never reports kBackpressure.
  [[nodiscard]] OpenResult try_open_stream(const StreamConfig& config) override;
  [[nodiscard]] bool submit_audio(StreamHandle h,
                                  std::span<const float> samples) override;
  [[nodiscard]] bool finish_stream(StreamHandle h) override;
  [[nodiscard]] bool close_stream(StreamHandle h) override;

  std::size_t poll_events(StreamHandle h,
                          std::vector<speech::StreamEvent>& out) override;
  std::size_t poll_events(std::vector<RecognizerEvent>& out) override;
  bool wait_for_events(std::chrono::microseconds timeout) override;

  [[nodiscard]] bool stream_done(StreamHandle h) const override;
  [[nodiscard]] StreamDeadlineStats stream_deadline_stats(
      StreamHandle h) const override;
  [[nodiscard]] Matrix stream_logits(StreamHandle h) const override;

  std::size_t drain() override;
  /// One scheduling round (up to max_batch streams advance one frame);
  /// finer-grained than drain() for callers interleaving with arrival.
  std::size_t step();

  [[nodiscard]] GlobalStats stats() const override;
  void reset_stats() override;

  /// The wrapped engine (stats inspection, tests).
  [[nodiscard]] const runtime::InferenceEngine& engine() const {
    return engine_;
  }

 private:
  [[nodiscard]] runtime::StreamingSession& session(StreamHandle h) const;
  [[nodiscard]] bool any_pending_events() const;
  /// Wakes wait_for_events after serving work that produced events.
  void notify_events();

  runtime::InferenceEngine engine_;
  /// Ordered so the drain-all poll emits streams in ascending handle-id
  /// order — the deterministic cross-implementation contract.
  std::map<std::uint64_t, runtime::StreamingSession*> streams_;
  std::uint64_t next_id_ = 1;
  WallTimer window_;  // spans construction / reset_stats() .. now
  /// Drain-all poll scratch, reused so the hot event path stays
  /// allocation-free once warmed (like the engine's batch buffers).
  std::vector<speech::StreamEvent> poll_scratch_;
  /// wait_for_events backing: drain()/step() notify after producing
  /// events (see the wakeup contract in recognizer.hpp).
  mutable std::mutex events_cv_mutex_;
  std::condition_variable events_cv_;
};

}  // namespace rtmobile::serve
