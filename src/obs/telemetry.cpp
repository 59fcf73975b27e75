#include "obs/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

namespace rtmobile::obs {

namespace {

/// One engine-cell family: the EngineCells member and its metric name.
/// A `level` (a residency) is summed over live engines, never retired.
template <class Cell>
struct Family {
  Cell EngineCells::*cell;
  const char* name;
  const char* help;
  bool level = false;
};

constexpr Family<Counter> kEngineCounters[] = {
    {&EngineCells::frames, "rt_engine_frames_total",
     "Feature frames served by engine steps"},
    {&EngineCells::deadline_misses, "rt_engine_deadline_misses_total",
     "Frames served after waiting past their stream's deadline budget"},
    {&EngineCells::shed_frames, "rt_engine_shed_frames_total",
     "Frames dropped by the overload policy (shed or reject)"},
    {&EngineCells::rejected_streams, "rt_engine_rejected_streams_total",
     "Streams terminated by OverloadPolicy::kReject"},
    {&EngineCells::fallback_steps, "rt_fallback_steps_total",
     "Scheduling rounds whose batch ran a width-1 step"},
    {&EngineCells::cache_hits, "rt_cache_hits_total",
     "Frames served from the prefix result cache (compute skipped)"},
    {&EngineCells::cache_misses, "rt_cache_misses_total",
     "Frames that fell through the prefix cache to model compute"},
    {&EngineCells::cache_evictions, "rt_cache_evictions_total",
     "Prefix-cache entries evicted by the byte budget"},
    {&EngineCells::cache_inserted_bytes, "rt_cache_bytes_total",
     "Cumulative bytes memoized into the prefix cache"},
};

constexpr Family<Gauge> kEngineGauges[] = {
    {&EngineCells::busy_us, "rt_engine_busy_us",
     "Wall microseconds spent inside engine steps"},
    {&EngineCells::audio_seconds, "rt_engine_audio_seconds",
     "Audio seconds represented by the frames served"},
    {&EngineCells::cache_bytes, "rt_cache_resident_bytes",
     "Current prefix-cache residency, summed over live engines", true},
};

/// Appends a synthesized sample: a counter for an integer value, a
/// gauge for a floating-point one.
template <class Value>
void append(MetricsSnapshot& snap, const char* name, const char* help,
            Value value, Labels labels = {}) {
  MetricSample& sample = snap.samples.emplace_back();
  sample.name = name;
  sample.help = help;
  sample.labels = std::move(labels);
  if constexpr (std::is_floating_point_v<Value>) {
    sample.kind = InstrumentKind::kGauge;
    sample.gauge_value = value;
  } else {
    sample.counter_value = value;
  }
}

}  // namespace

void EngineCells::reset() {
  // Exported as histogram counts, so not in kEngineCounters.
  steps.reset();
  fused_steps.reset();
  for (const auto& family : kEngineCounters) (this->*family.cell).reset();
  for (const auto& family : kEngineGauges) {
    if (!family.level) (this->*family.cell).set(0.0);
  }
}

Telemetry::Telemetry(std::size_t span_ring_capacity)
    : trace_(span_ring_capacity) {
  histograms_.step_latency_us = &registry_.histogram(
      "rt_engine_step_latency_us", "Engine scheduling-round latency",
      default_latency_buckets_us());
  histograms_.lag_us = &registry_.histogram(
      "rt_engine_lag_us",
      "Per-round worst head-frame wait across ready streams",
      default_latency_buckets_us());
  histograms_.fused_batch_width = &registry_.histogram(
      "rt_fused_batch_width",
      "Streams advanced per fused step (compute panel width)",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});

  net_.accepted = &registry_.counter("rt_net_accepted_total",
                                     "TCP connections accepted");
  net_.closed = &registry_.counter("rt_net_closed_total",
                                   "TCP connections reaped");
  net_.protocol_errors = &registry_.counter(
      "rt_net_protocol_errors_total",
      "Connections failed with a typed protocol error");
  net_.slow_consumer_drops = &registry_.counter(
      "rt_net_slow_consumer_drops_total",
      "Connections dropped at the bounded-egress write-buffer cap");
  net_.ingress_pauses = &registry_.counter(
      "rt_net_ingress_pause_episodes_total",
      "Times a connection paused reads under ingress backpressure");
  net_.bytes_in = &registry_.counter("rt_net_bytes_in_total",
                                     "Wire bytes read from clients");
  net_.bytes_out = &registry_.counter("rt_net_bytes_out_total",
                                      "Wire bytes written to clients");
  net_.scrapes = &registry_.counter("rt_net_scrapes_total",
                                    "HTTP metric scrapes served");
  net_.connections = &registry_.gauge("rt_net_connections",
                                      "Live TCP connections");

  fault_.injected = &registry_.counter(
      "rt_fault_injected_total", "Faults fired by the FaultInjector");
  fault_.detected = &registry_.counter(
      "rt_fault_detected_total",
      "Shards declared unhealthy by the supervisor");
  fault_.failovers = &registry_.counter(
      "rt_fault_failovers_total", "Shard failovers executed");
  fault_.replayed_streams = &registry_.counter(
      "rt_fault_replayed_streams_total",
      "Live streams migrated intact off a failed shard");
  fault_.aborted_streams = &registry_.counter(
      "rt_fault_aborted_streams_total",
      "Streams given a terminal abort event (could not be replayed)");
  fault_.reaped_connections = &registry_.counter(
      "rt_fault_reaped_connections_total",
      "Connections reaped by the idle/write-stall deadline timers");
}

void Telemetry::attach(const EngineCells& cells) {
  const std::lock_guard<std::mutex> lock(engines_mutex_);
  engines_.push_back(&cells);
}

void Telemetry::retire(EngineCells& cells, bool detach) {
  const std::lock_guard<std::mutex> lock(engines_mutex_);
  for (const auto& family : kEngineCounters) {
    (retired_.*family.cell).add((cells.*family.cell).value());
  }
  for (const auto& family : kEngineGauges) {
    if (!family.level) {
      (retired_.*family.cell).add((cells.*family.cell).value());
    }
  }
  cells.reset();
  if (detach) std::erase(engines_, &cells);
}

Gauge& Telemetry::shard_gauge(const std::string& name,
                              const std::string& help, std::size_t shard) {
  return registry_.gauge(name, help,
                         {{"shard", std::to_string(shard)}});
}

MetricsSnapshot Telemetry::snapshot() const {
  MetricsSnapshot snap = registry_.snapshot();
  {
    // Summed in attach order after the retired total, as GlobalStats
    // merges shards in order, so even the gauges match bit for bit.
    const std::lock_guard<std::mutex> lock(engines_mutex_);
    const auto total = [this](const auto& family) {
      auto value = (retired_.*family.cell).value();
      for (const EngineCells* cells : engines_) {
        value += (cells->*family.cell).value();
      }
      return value;
    };
    for (const auto& family : kEngineCounters) {
      append(snap, family.name, family.help, total(family));
    }
    for (const auto& family : kEngineGauges) {
      append(snap, family.name, family.help, total(family));
    }
  }
  const std::array<StageStats, kStageCount> stages = trace_.stage_stats();
  const auto stage = [](std::size_t s) {
    return Labels{{"stage", std::string(stage_name(static_cast<Stage>(s)))}};
  };
  for (std::size_t s = 0; s < kStageCount; ++s) {
    append(snap, "rt_stage_spans_total", "Spans recorded per pipeline stage",
           stages[s].count, stage(s));
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    append(snap, "rt_stage_us_total", "Microseconds spent per pipeline stage",
           stages[s].total_us, stage(s));
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    append(snap, "rt_stage_max_us", "Worst single span per pipeline stage",
           stages[s].max_us, stage(s));
  }
  append(snap, "rt_stage_spans_dropped_total",
         "Raw spans overwritten in the per-thread rings",
         trace_.dropped_spans());
  return snap;
}

std::string Telemetry::render_prometheus() const {
  return snapshot().to_prometheus();
}

std::string Telemetry::render_json() const {
  std::string out = "{\n\"metrics\": ";
  out += snapshot().to_json();
  out += ",\n\"slow_stream_exemplars\": [\n";
  const std::vector<TraceCollector::Exemplar> exemplars =
      trace_.exemplars();
  char buf[160];
  for (std::size_t e = 0; e < exemplars.size(); ++e) {
    const TraceCollector::Exemplar& exemplar = exemplars[e];
    std::snprintf(buf, sizeof(buf),
                  "  {\"stream\": %" PRIu64
                  ", \"lag_us\": %.1f, \"captured_at_us\": %.1f, "
                  "\"spans\": [\n",
                  exemplar.stream_id, exemplar.lag_us,
                  exemplar.captured_at_us);
    out += buf;
    for (std::size_t s = 0; s < exemplar.spans.size(); ++s) {
      const SpanRecord& span = exemplar.spans[s];
      const std::string stage(stage_name(span.stage));
      // Batch-level spans (no single stream) render as stream null.
      std::string stream = "null";
      if (span.stream_id != kNoStream) {
        stream = std::to_string(span.stream_id);
      }
      std::snprintf(buf, sizeof(buf),
                    "    {\"stage\": \"%s\", \"stream\": %s, "
                    "\"start_us\": %.1f, \"dur_us\": %.1f}%s\n",
                    stage.c_str(), stream.c_str(), span.start_us,
                    span.duration_us,
                    s + 1 < exemplar.spans.size() ? "," : "");
      out += buf;
    }
    out += e + 1 < exemplars.size() ? "  ]},\n" : "  ]}\n";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace rtmobile::obs
