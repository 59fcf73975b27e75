#include "runtime/streaming_session.hpp"

#include <algorithm>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace rtmobile::runtime {

StreamingSession::StreamingSession(
    std::size_t id, const CompiledSpeechModel& model,
    std::shared_ptr<const speech::MfccExtractor> mfcc,
    const speech::StreamingDecoderConfig& decode)
    : id_(id),
      model_(model),
      mfcc_(std::move(mfcc)),
      state_(model.make_state()) {
  RT_REQUIRE(mfcc_.feature_dim() == model.config().input_dim,
             "session: MFCC feature dimension must match model input");
  if (decode.mode != speech::DecodeMode::kNone) {
    decoder_.emplace(model.config().num_classes, decode);
  }
  // Seed the prefix chain from the (zero) initial hidden state, so a
  // cached trajectory can only ever match a stream that started from the
  // same state a fresh stream does.
  std::vector<float> flat;
  capture_state(flat);
  prefix_cursor_ = cache::PrefixCursor::from_state(flat);
}

void StreamingSession::push_audio(std::span<const float> samples) {
  if (rejected_) return;  // terminated stream: audio is dropped
  RT_SPAN(telemetry_ != nullptr ? &telemetry_->trace() : nullptr, kMfcc,
          id_);
  mfcc_.push(samples);
  drain_front_end();
}

void StreamingSession::finish() {
  if (rejected_) return;
  RT_SPAN(telemetry_ != nullptr ? &telemetry_->trace() : nullptr, kMfcc,
          id_);
  mfcc_.finish();
  drain_front_end();
  // An utterance whose frames were all served before finish() (or that
  // produced none at all) completes here, not in pop_frame.
  maybe_finish_decoder();
}

void StreamingSession::drain_front_end() {
  const std::size_t dim = mfcc_.feature_dim();
  const double now_us = clock_ != nullptr ? clock_->now_us() : 0.0;
  while (mfcc_.ready_frames() > 0) {
    pending_.emplace_back(dim);  // written in place: no intermediate copy
    const bool popped =
        mfcc_.pop_row({pending_.back().data(), pending_.back().size()});
    RT_ASSERT(popped, "ready front end must yield a row");
    arrival_us_.push_back(now_us);
  }
}

std::span<const float> StreamingSession::front_frame() const {
  RT_REQUIRE(!pending_.empty(), "front_frame: no frame queued");
  return {pending_.front().data(), pending_.front().size()};
}

void StreamingSession::pop_frame() {
  RT_REQUIRE(!pending_.empty(), "pop_frame: no frame queued");
  pending_.pop_front();
  arrival_us_.pop_front();
  // The engine appends this frame's logits before popping it, so the
  // stream's last row has been decoded by the time done() flips here.
  maybe_finish_decoder();
}

void StreamingSession::append_logits(std::span<const float> row) {
  RT_REQUIRE(row.size() == model_.config().num_classes,
             "append_logits: row width mismatch");
  logits_.insert(logits_.end(), row.begin(), row.end());
  ++frames_done_;
  if (decoder_.has_value()) decoder_->push_row(row);
}

// ------------------------------------------------- prefix-cache snapshots

std::size_t StreamingSession::state_size() const {
  std::size_t total = 0;
  for (const Vector& layer : state_.h) total += layer.size();
  return total;
}

void StreamingSession::capture_state(std::vector<float>& out) const {
  out.clear();
  out.reserve(state_size());
  for (const Vector& layer : state_.h) {
    out.insert(out.end(), layer.data(), layer.data() + layer.size());
  }
}

void StreamingSession::restore_state(std::span<const float> snapshot) {
  RT_REQUIRE(snapshot.size() == state_size(),
             "restore_state: snapshot size mismatch");
  std::size_t offset = 0;
  for (Vector& layer : state_.h) {
    std::copy(snapshot.begin() + static_cast<std::ptrdiff_t>(offset),
              snapshot.begin() +
                  static_cast<std::ptrdiff_t>(offset + layer.size()),
              layer.data());
    offset += layer.size();
  }
}

// ------------------------------------------------- real-time clock model

double StreamingSession::lag_seconds() {
  if (pending_.empty() || clock_ == nullptr) return 0.0;
  return frame_wait_us(clock_->now_us()) * 1e-6;
}

double StreamingSession::frame_wait_us(double now_us) const {
  RT_REQUIRE(!pending_.empty(), "frame_wait_us: no frame queued");
  return std::max(0.0, now_us - arrival_us_.front());
}

double StreamingSession::oldest_arrival_us() const {
  RT_REQUIRE(!pending_.empty(), "oldest_arrival_us: no frame queued");
  return arrival_us_.front();
}

std::size_t StreamingSession::shed_overdue(double now_us) {
  if (!deadline_.enabled()) return 0;
  const double budget_us = deadline_.budget_us();
  std::size_t dropped = 0;
  while (!pending_.empty() && now_us - arrival_us_.front() > budget_us) {
    pending_.pop_front();
    arrival_us_.pop_front();
    ++dropped;
  }
  if (dropped > 0) {
    shed_frames_ += dropped;
    push_control_event(speech::StreamEventKind::kDegraded, dropped,
                       /*is_final=*/false);
    // A shed that empties the queue of a finished stream completes it.
    maybe_finish_decoder();
  }
  return dropped;
}

std::size_t StreamingSession::reject() {
  if (rejected_) return 0;
  const std::size_t dropped = pending_.size();
  pending_.clear();
  arrival_us_.clear();
  shed_frames_ += dropped;
  // Finalize the decoder over the frames already served so the client's
  // last hypothesis event precedes the terminal rejection event.
  if (decoder_.has_value() && !decoder_->finished()) decoder_->finish();
  rejected_ = true;
  push_control_event(speech::StreamEventKind::kRejected, dropped,
                     /*is_final=*/true);
  return dropped;
}

void StreamingSession::push_control_event(speech::StreamEventKind kind,
                                          std::size_t dropped,
                                          bool is_final) {
  // Fold the decoder's already-emitted events in first, so a poll sees
  // every event in emission order (a kDegraded lands before hypotheses
  // the decoder produces afterwards, keeping `frames` monotonic).
  if (decoder_.has_value()) decoder_->poll_events(queued_events_);
  speech::StreamEvent event;
  event.kind = kind;
  event.frames = frames_done_;
  event.dropped_frames = dropped;
  event.is_final = is_final;
  queued_events_.push_back(std::move(event));
}

// ------------------------------------------------------ decode & results

void StreamingSession::maybe_finish_decoder() {
  if (decoder_.has_value() && !decoder_->finished() && done()) {
    decoder_->finish();
  }
}

std::size_t StreamingSession::poll_events(
    std::vector<speech::StreamEvent>& out) {
  // Session-queued events predate whatever the decoder has emitted
  // since (push_control_event folds the decoder queue in), so this
  // order is emission order.
  std::size_t moved = queued_events_.size();
  out.insert(out.end(), std::make_move_iterator(queued_events_.begin()),
             std::make_move_iterator(queued_events_.end()));
  queued_events_.clear();
  if (decoder_.has_value()) moved += decoder_->poll_events(out);
  return moved;
}

const speech::StreamingDecoder& StreamingSession::decoder() const {
  RT_REQUIRE(decoder_.has_value(),
             "session: no streaming decoder configured (mode kNone)");
  return *decoder_;
}

std::vector<std::uint16_t> StreamingSession::hypothesis() const {
  return decoder().hypothesis();
}

double StreamingSession::audio_seconds_processed() const {
  return static_cast<double>(frames_done_) * seconds_per_frame();
}

double StreamingSession::seconds_per_frame() const {
  const speech::MfccConfig& cfg = mfcc_.config();
  return static_cast<double>(cfg.frame_shift) / cfg.sample_rate_hz;
}

Matrix StreamingSession::logits() const {
  const std::size_t classes = model_.config().num_classes;
  Matrix out(frames_done_, classes);
  std::copy(logits_.begin(), logits_.end(), out.data());
  return out;
}

}  // namespace rtmobile::runtime
