#include "serve/local_recognizer.hpp"

#include <utility>

#include "util/check.hpp"

namespace rtmobile::serve {

LocalRecognizer::LocalRecognizer(const CompiledSpeechModel& model,
                                 runtime::EngineConfig config)
    : engine_(model, std::move(config)) {}

runtime::StreamingSession& LocalRecognizer::session(StreamHandle h) const {
  const auto it = streams_.find(h.id);
  RT_REQUIRE(it != streams_.end(),
             "unknown stream handle (never opened or already closed)");
  return *it->second;
}

OpenResult LocalRecognizer::try_open_stream(const StreamConfig& config) {
  // Open-time admission control: a deadline-carrying stream opened while
  // the engine is already further behind than its budget would only have
  // its frames shed — refuse before compute is wasted.
  if (config.deadline.enabled() &&
      engine_.max_lag_seconds() > config.deadline.budget_seconds) {
    return OpenResult{StreamHandle{}, OpenStatus::kRejectedOverBudget};
  }
  // One engine: config.session_key has no routing to influence.
  runtime::StreamingSession& session =
      engine_.create_session(config.decode);
  session.set_deadline(config.deadline);
  const StreamHandle handle{next_id_++};
  streams_.emplace(handle.id, &session);
  return OpenResult{handle, OpenStatus::kOk};
}

bool LocalRecognizer::submit_audio(StreamHandle h,
                                   std::span<const float> samples) {
  runtime::StreamingSession& s = session(h);
  // Audio after finish is dropped, matching the sharded applier.
  if (!s.finished()) s.push_audio(samples);
  return true;  // in-memory ingestion never backpressures
}

bool LocalRecognizer::finish_stream(StreamHandle h) {
  runtime::StreamingSession& s = session(h);
  if (!s.finished()) s.finish();
  return true;
}

bool LocalRecognizer::close_stream(StreamHandle h) {
  runtime::StreamingSession& s = session(h);
  streams_.erase(h.id);
  // Ownership returns to us and dies here: the session is freed.
  (void)engine_.release_session(&s);
  return true;
}

std::size_t LocalRecognizer::poll_events(
    StreamHandle h, std::vector<speech::StreamEvent>& out) {
  return session(h).poll_events(out);
}

std::size_t LocalRecognizer::poll_events(std::vector<RecognizerEvent>& out) {
  std::size_t total = 0;
  // streams_ is ordered: the drain-all poll emits streams in ascending
  // handle-id order, matching ShardedEngine's sorted flush.
  for (const auto& [id, session] : streams_) {
    if (session->pending_events() == 0) continue;
    poll_scratch_.clear();
    session->poll_events(poll_scratch_);
    for (speech::StreamEvent& event : poll_scratch_) {
      out.push_back(RecognizerEvent{StreamHandle{id}, std::move(event)});
    }
    total += poll_scratch_.size();
  }
  return total;
}

bool LocalRecognizer::stream_done(StreamHandle h) const {
  return session(h).done();
}

StreamDeadlineStats LocalRecognizer::stream_deadline_stats(
    StreamHandle h) const {
  runtime::StreamingSession& s = session(h);
  StreamDeadlineStats stats;
  stats.lag_seconds = s.lag_seconds();
  stats.shed_frames = s.shed_frames();
  stats.deadline_misses = s.deadline_misses();
  stats.rejected = s.rejected();
  return stats;
}

Matrix LocalRecognizer::stream_logits(StreamHandle h) const {
  return session(h).logits();
}

bool LocalRecognizer::any_pending_events() const {
  for (const auto& [id, session] : streams_) {
    if (session->pending_events() > 0) return true;
  }
  return false;
}

void LocalRecognizer::notify_events() {
  if (!any_pending_events()) return;
  // Pair with wait_for_events' predicate check under the same mutex so a
  // waiter never sleeps through a publish (classic lost-wakeup guard).
  { const std::lock_guard<std::mutex> lock(events_cv_mutex_); }
  events_cv_.notify_all();
}

bool LocalRecognizer::wait_for_events(std::chrono::microseconds timeout) {
  if (any_pending_events()) return true;
  std::unique_lock<std::mutex> lock(events_cv_mutex_);
  return events_cv_.wait_for(lock, timeout,
                             [this] { return any_pending_events(); });
}

std::size_t LocalRecognizer::drain() {
  const std::size_t frames = engine_.drain();
  // A round can publish events even when no frame advanced (overload
  // shed/reject control events), so notify on pending events, not on
  // frames; notify_events is a no-op when nothing is pending.
  notify_events();
  return frames;
}

std::size_t LocalRecognizer::step() {
  const std::size_t advanced = engine_.step();
  notify_events();
  return advanced;
}

GlobalStats LocalRecognizer::stats() const {
  GlobalStats global;
  global.add_shard(engine_.stats());
  global.wall_us = window_.elapsed_us();
  global.weight_bytes = engine_.model().total_memory_bytes();
  return global;
}

void LocalRecognizer::reset_stats() {
  engine_.reset_stats();
  window_.reset();
}

}  // namespace rtmobile::serve
