// Open-loop wire load generator: one client thread driving a fixed number
// of concurrent sending connections over loopback TCP.
//
// Each connection slot plays back-to-back streams (one TCP connection per
// stream, as the wire protocol defines), sending 100 ms chunks on a fixed
// schedule: slot k's chunks are due every `interval` microseconds, where
// the interval is set so the slots together offer `offered_load` audio
// seconds per wall second. The schedule never waits for replies; a stream
// still awaiting its final keeps its own connection while the slot's next
// stream starts on a fresh one. Latencies are taken from due times, so a
// generator that falls behind shows up as lateness, not as lower latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct LoadgenConfig {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  /// Aggregate audio seconds offered per wall second.
  double offered_load = 1.0;
  /// Schedule origin (first chunk of slot 0 is due here) and the time
  /// after which no new stream starts; in-flight streams then finish.
  double start_us = 0.0;
  double stop_us = 0.0;
  /// Audio for the n-th stream of the run (recorded as its audio_index).
  std::function<std::vector<float>(std::size_t stream)> audio;
  /// Called about once per millisecond: window marks, progress beats for
  /// the hang guard, shard-load sampling in traced runs.
  std::function<void(double now_us)> on_tick;
};

struct LoadgenResult {
  std::vector<double> late_ms;  // send time - due time, per chunk
  double deframe_us = 0.0;      // client time spent deframing + decoding
  std::size_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Runs the schedule to completion, recording every stream and event into
/// `ledger`. A server that stops answering leaves the loop waiting; the
/// caller's hang guard (fed from on_tick) ends the process.
[[nodiscard]] LoadgenResult run_open_loop(const LoadgenConfig& config,
                                          Ledger& ledger);

}  // namespace perfbench
