// The one observability object a serving process carries.
//
// Telemetry bundles a MetricsRegistry and a TraceCollector and
// pre-registers the shared instruments every layer reports into: the
// engine histograms, per-shard load gauges, the fault chain and the net
// front's connection counters. Layers receive a Telemetry* (null =
// observability off, zero cost beyond the branch) through their existing
// config structs: EngineConfig::telemetry reaches every InferenceEngine
// and StreamingSession, ShardConfig rides the same field, and
// ServerConfig::telemetry covers the epoll front.
//
// Engine counters are each engine's own EngineCells, attached here: the
// rt_engine_*, rt_fallback_steps_total and rt_cache_* families are the
// sums of the attached cells plus what reset or destroyed engines
// retired, so /metrics and the engines' merged RuntimeStats are one set
// of numbers. The histograms stay shared registry instruments, because
// RuntimeStats keeps exact nearest-rank quantiles that buckets cannot;
// engine rounds and fused rounds are exported once, as the counts of the
// rt_engine_step_latency_us and rt_fused_batch_width histograms.
//
// Exposition: render_prometheus()/render_json() merge the registry
// snapshot with synthesized per-stage span samples (and, in JSON, the
// slow-stream exemplar traces), which is exactly what the net server's
// /metrics and /metrics.json endpoints serve.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rtmobile::obs {

/// One engine's serving counters, written only by the thread driving
/// the engine and read by its stats() and by an attached Telemetry.
struct EngineCells {
  Counter frames;            // RuntimeStats::frames_processed
  Counter steps;             // RuntimeStats::steps (not exported)
  Counter deadline_misses;   // RuntimeStats::deadline_misses
  Counter shed_frames;       // RuntimeStats::shed_frames
  Counter rejected_streams;  // RuntimeStats::rejected_streams
  Counter fused_steps;       // RuntimeStats::fused_steps (not exported)
  Counter fallback_steps;    // RuntimeStats::fallback_steps
  Counter cache_hits;        // RuntimeStats::cache_hits
  Counter cache_misses;      // RuntimeStats::cache_misses
  Counter cache_evictions;   // RuntimeStats::cache_evictions
  Counter cache_inserted_bytes;  // scrape only (rt_cache_bytes_total)
  Gauge busy_us;                 // RuntimeStats::busy_us
  Gauge audio_seconds;           // RuntimeStats::audio_seconds
  Gauge cache_bytes;  // RuntimeStats::cache_bytes, a level: never reset

  /// Zeroes every running total.
  void reset();
};

/// The engine histograms, shared by every engine on one Telemetry.
struct EngineHistograms {
  Histogram* step_latency_us = nullptr;
  Histogram* lag_us = nullptr;
  /// Width of each fused compute panel — the batch-occupancy signal
  /// that says how much weight traffic the fused step amortizes.
  Histogram* fused_batch_width = nullptr;
};

/// Net-front instruments (the counters that were previously invisible
/// connection state).
struct NetMetrics {
  Counter* accepted = nullptr;
  Counter* closed = nullptr;
  Counter* protocol_errors = nullptr;
  Counter* slow_consumer_drops = nullptr;
  Counter* ingress_pauses = nullptr;  // pause *episodes*, not bytes
  Counter* bytes_in = nullptr;
  Counter* bytes_out = nullptr;
  Counter* scrapes = nullptr;
  Gauge* connections = nullptr;
};

/// Fault-layer instruments: the injected → detected → recovered chain
/// the supervisor and the net front's self-defense timers report into.
struct FaultMetrics {
  Counter* injected = nullptr;          // FaultInjector fires
  Counter* detected = nullptr;          // shards declared unhealthy
  Counter* failovers = nullptr;         // shard failovers executed
  Counter* replayed_streams = nullptr;  // streams migrated intact
  Counter* aborted_streams = nullptr;   // streams given terminal aborts
  Counter* reaped_connections = nullptr;  // idle/stalled conns reaped
};

class Telemetry {
 public:
  /// `span_ring_capacity` sizes each thread's span ring.
  explicit Telemetry(std::size_t span_ring_capacity = 1024);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  TraceCollector& trace() { return trace_; }
  EngineHistograms& histograms() { return histograms_; }
  NetMetrics& net() { return net_; }
  FaultMetrics& fault() { return fault_; }

  /// Adds `cells` to the engine families; they must stay put until
  /// retired with `detach`.
  void attach(const EngineCells& cells);
  /// Moves `cells`' running totals into the retired totals and zeroes
  /// them in one step, so no scrape goes backwards; with `detach`, the
  /// families stop reading `cells`.
  void retire(EngineCells& cells, bool detach);

  /// Registers (idempotently) a per-shard gauge, labeled shard="<s>".
  Gauge& shard_gauge(const std::string& name, const std::string& help,
                     std::size_t shard);

  /// Registry snapshot extended with the engine families, per-stage
  /// span samples (rt_stage_count/rt_stage_us_total/rt_stage_max_us,
  /// labeled by stage) and the span-ring drop counter.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::string render_prometheus() const;
  /// The metrics snapshot plus slow-stream exemplar span traces.
  [[nodiscard]] std::string render_json() const;

 private:
  MetricsRegistry registry_;
  TraceCollector trace_;
  EngineHistograms histograms_;
  NetMetrics net_;
  FaultMetrics fault_;
  mutable std::mutex engines_mutex_;  // guards engines_ and retired_
  std::vector<const EngineCells*> engines_;
  EngineCells retired_;  // running totals only; its level stays 0
};

}  // namespace rtmobile::obs
