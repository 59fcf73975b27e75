// Result bookkeeping shared by every workload: the per-stream ledger that
// turns received hypothesis events into latency samples, percentile
// helpers, and the ordered metric list printed as the run's JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "speech/streaming_decoder.hpp"

namespace perfbench {

/// Front-end geometry the latency accounting depends on (16 kHz audio,
/// 25 ms windows every 10 ms, delta features needing 4 frames of
/// lookahead); fixture.cpp builds the served MFCC config from the same
/// constants.
inline constexpr std::size_t kSampleRate = 16000;
inline constexpr std::size_t kFrameLength = 400;
inline constexpr std::size_t kFrameShift = 160;
inline constexpr std::size_t kDeltaLookahead = 4;
/// Audio per client chunk: 100 ms.
inline constexpr std::size_t kChunkSamples = 1600;

/// Feature frames the front end emits for `samples` of audio.
[[nodiscard]] std::size_t feature_frames(std::size_t samples);

/// Microseconds on the steady clock since the first call (the run epoch).
[[nodiscard]] double now_us();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One client stream as the benchmark sees it. Every latency is measured
/// from a *due time*: the moment the stream's audio was available to send
/// (chunk c of a paced stream is due at t0 + c * interval; a closed-loop
/// stream submits all of its audio at t0, so every chunk is due then).
struct StreamRecord {
  std::size_t audio_index = 0;  // which utterance (re-made for the check)
  std::size_t samples = 0;
  double t0_us = 0.0;
  double interval_us = 0.0;
  double first_event_us = -1.0;
  double final_us = -1.0;
  double recognized_s = 0.0;     // audio the events so far account for
  std::size_t final_frames = 0;  // frames stamp of the final event
  std::vector<std::uint16_t> hypothesis;  // concatenated stable deltas
  bool done = false;
  bool failed = false;

  [[nodiscard]] std::size_t chunks() const;
  [[nodiscard]] double finish_due_us() const;
  /// Due time of the chunk whose samples completed feature frame
  /// `frames - 1` (the event's last frame): the MFCC front end emits frame
  /// t once the window of frame t + 4 is complete (the delta lookahead),
  /// or at end of audio.
  [[nodiscard]] double due_for_frames(std::size_t frames) const;
};

/// Collects every stream and event of one run and the samples that fall
/// in the measurement window [window_start, window_end): per-stream
/// latencies count for streams whose first chunk is due in the window,
/// per-event lags for events whose completing chunk is due in it.
class Ledger {
 public:
  void set_window(double start_us, double end_us) {
    window_start_us_ = start_us;
    window_end_us_ = end_us;
  }
  std::size_t add(const StreamRecord& record);
  [[nodiscard]] StreamRecord& stream(std::size_t index) {
    return streams_[index];
  }
  [[nodiscard]] const std::vector<StreamRecord>& streams() const {
    return streams_;
  }

  /// Folds one received event into its stream's record.
  void on_event(std::size_t stream, const rtmobile::speech::StreamEvent& event,
                double receive_us);
  void fail(std::size_t stream) { streams_[stream].failed = true; }

  /// Audio seconds recognized so far, summed over streams, as the events
  /// received report it: a partial covers its frames, a final the stream's
  /// whole audio.
  [[nodiscard]] double recognized_seconds() const {
    return recognized_seconds_;
  }
  [[nodiscard]] std::size_t events() const { return events_; }
  /// Streams whose final event has arrived.
  [[nodiscard]] std::size_t finished() const { return finished_; }

  [[nodiscard]] const std::vector<double>& event_lag_ms() const {
    return event_lag_ms_;
  }
  [[nodiscard]] std::vector<double> first_partial_ms() const;
  [[nodiscard]] std::vector<double> final_ms() const;
  [[nodiscard]] std::size_t failed() const;

 private:
  [[nodiscard]] bool in_window(double due_us) const {
    return due_us >= window_start_us_ && due_us < window_end_us_;
  }

  std::vector<StreamRecord> streams_;
  std::vector<double> event_lag_ms_;
  double recognized_seconds_ = 0.0;
  std::size_t events_ = 0;
  std::size_t finished_ = 0;
  double window_start_us_ = 0.0;
  double window_end_us_ = 0.0;
};

/// Named metrics in insertion order, printed as {"name": {"value", "unit"}}.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// set() of every entry of `other`, in its order.
  void merge(const MetricList& other);
  /// The value of `name` (0 when absent).
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] std::string to_json() const;
  /// Human-readable table (one metric per line).
  [[nodiscard]] std::string to_text() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// A JSON number with every significant digit (non-finite values print 0).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
