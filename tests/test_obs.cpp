// Tests for the observability layer: the metrics registry (typed
// instruments, concurrency, Prometheus/JSON exposition), per-stage span
// tracing (ring overflow, exact aggregates, slow-stream exemplars), the
// pluggable log sink, the attached-cell families (retire/detach never
// move a family backwards), and the end-to-end guarantee the whole
// design exists for — a live /metrics scrape over TCP whose engine
// counters exactly equal the engines' merged stats for the same
// workload, while serving, across reset_stats(), and across shards.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "net/recognizer_server.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/stats.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramData;
using obs::InstrumentKind;
using obs::Labels;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Stage;
using obs::Telemetry;
using obs::TraceCollector;
using net::RecognizerServer;

// ---------------------------------------------------------- registry

TEST(ObsMetrics, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c_total", "a counter");
  Gauge& g = registry.gauge("g", "a gauge");
  Histogram& h = registry.histogram("h_us", "a histogram", {1.0, 10.0});

  c.add(3);
  c.add(4);
  g.set(2.5);
  g.add(-0.5);
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (bounds are inclusive upper edges)
  h.observe(5.0);   // le=10
  h.observe(100.0); // +Inf

  EXPECT_EQ(c.value(), 7U);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_EQ(h.count(), 4U);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3U);
  const MetricSample* hs = snap.find("h_us", {});
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->histogram.cumulative,
            (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_DOUBLE_EQ(hs->histogram.sum, 106.5);
  EXPECT_EQ(hs->histogram.count, 4U);
}

TEST(ObsMetrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry registry;
  Counter& a = registry.counter("dup_total", "help");
  Counter& b = registry.counter("dup_total", "other help text");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same cell
  EXPECT_EQ(registry.instrument_count(), 1U);

  // Distinct labels are a distinct instrument of the same family.
  Counter& labeled =
      registry.counter("dup_total", "help", {{"shard", "0"}});
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(registry.instrument_count(), 2U);

  // Re-registering a name as a different kind is a caller bug.
  EXPECT_THROW(registry.gauge("dup_total", "help"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("dup_total", "help", {1.0}),
               std::invalid_argument);
}

TEST(ObsMetrics, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits_total", "hammered counter");
  Histogram& h =
      registry.histogram("lat_us", "hammered histogram", {10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(static_cast<double>((i + static_cast<std::uint64_t>(t)) %
                                      200));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  const HistogramData data = h.snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  EXPECT_EQ(data.cumulative.back(), kThreads * kPerThread);
}

TEST(ObsMetrics, PrometheusGoldenOutput) {
  MetricsRegistry registry;
  registry.counter("req_total", "Requests served", {{"shard", "0"}}).add(5);
  registry.counter("req_total", "Requests served", {{"shard", "1"}}).add(2);
  registry.gauge("queue_depth", "Live queue depth").set(3.0);
  Histogram& h = registry.histogram("lat_us", "Latency", {1.0, 2.5});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(9.0);

  const std::string expected =
      "# HELP req_total Requests served\n"
      "# TYPE req_total counter\n"
      "req_total{shard=\"0\"} 5\n"
      "req_total{shard=\"1\"} 2\n"
      "# HELP queue_depth Live queue depth\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 3\n"
      "# HELP lat_us Latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"2.5\"} 2\n"
      "lat_us_bucket{le=\"+Inf\"} 3\n"
      "lat_us_sum 11.5\n"
      "lat_us_count 3\n";
  EXPECT_EQ(registry.snapshot().to_prometheus(), expected);
}

TEST(ObsMetrics, EmptyRegistryAndEmptyHistogramRender) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.snapshot().to_prometheus(), "");
  EXPECT_EQ(registry.snapshot().to_json(), "[\n]\n");

  // A registered-but-never-observed histogram still renders a complete,
  // all-zero bucket ladder (scrapers rely on the family existing).
  registry.histogram("idle_us", "never observed", {5.0});
  const std::string rendered = registry.snapshot().to_prometheus();
  EXPECT_NE(rendered.find("idle_us_bucket{le=\"5\"} 0\n"), std::string::npos);
  EXPECT_NE(rendered.find("idle_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(rendered.find("idle_us_count 0\n"), std::string::npos);
}

// ------------------------------------------------------------- tracing

TEST(ObsTrace, SpansCarryStageAndStreamAttribution) {
  TraceCollector trace(64);
  { RT_SPAN(&trace, kMfcc, 42); }
  { RT_SPAN(&trace, kLayerStep, obs::kNoStream); }
  trace.record(Stage::kDecode, 42, trace.now_us(), 3.5);

  const auto stats = trace.stage_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kMfcc)].count, 1U);
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kLayerStep)].count, 1U);
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kDecode)].count, 1U);
  EXPECT_DOUBLE_EQ(
      stats[static_cast<std::size_t>(Stage::kDecode)].total_us, 3.5);

  const std::vector<obs::SpanRecord> spans = trace.recent_spans();
  ASSERT_EQ(spans.size(), 3U);
  // Sorted by start time; the hand-recorded decode span started last.
  EXPECT_EQ(spans.back().stage, Stage::kDecode);
  EXPECT_EQ(spans.back().stream_id, 42U);
  EXPECT_EQ(trace.dropped_spans(), 0U);
  EXPECT_EQ(trace.ring_count(), 1U);
}

TEST(ObsTrace, RingOverflowCountsDropsButAggregatesStayExact) {
  TraceCollector trace(4);
  for (int i = 0; i < 20; ++i) {
    trace.record(Stage::kGather, obs::kNoStream,
                 static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(trace.recent_spans().size(), 4U);   // ring keeps the newest
  EXPECT_EQ(trace.dropped_spans(), 16U);
  const auto stats = trace.stage_stats();
  // The exact accumulators survive the overwrites.
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kGather)].count, 20U);
  EXPECT_DOUBLE_EQ(
      stats[static_cast<std::size_t>(Stage::kGather)].total_us, 20.0);
}

TEST(ObsTrace, PerThreadRingsMergeInStageStats) {
  TraceCollector trace(64);
  constexpr int kThreads = 4;
  constexpr int kSpans = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kSpans; ++i) {
        trace.record(Stage::kLayerStep, obs::kNoStream, 0.0, 2.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.ring_count(), static_cast<std::size_t>(kThreads));
  const auto stats = trace.stage_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kLayerStep)].count,
            static_cast<std::uint64_t>(kThreads) * kSpans);
}

TEST(ObsTrace, ExemplarsKeepLatestPerStreamAndEvictOldest) {
  TraceCollector trace(64);
  trace.record(Stage::kDecode, 7, 0.0, 1.0);
  trace.capture_exemplar(7, 100.0);
  trace.record(Stage::kDecode, 7, 5.0, 2.0);
  trace.capture_exemplar(7, 200.0);  // latest capture wins

  std::vector<TraceCollector::Exemplar> exemplars = trace.exemplars();
  ASSERT_EQ(exemplars.size(), 1U);
  EXPECT_EQ(exemplars[0].stream_id, 7U);
  EXPECT_DOUBLE_EQ(exemplars[0].lag_us, 200.0);
  ASSERT_FALSE(exemplars[0].spans.empty());
  for (const obs::SpanRecord& span : exemplars[0].spans) {
    EXPECT_TRUE(span.stream_id == 7U || span.stream_id == obs::kNoStream);
  }

  // Flood with more streams than the store holds: bounded, oldest out.
  for (std::uint64_t s = 100; s < 100 + TraceCollector::kMaxExemplars + 3;
       ++s) {
    trace.record(Stage::kDecode, s, 0.0, 1.0);
    trace.capture_exemplar(s, 50.0);
  }
  exemplars = trace.exemplars();
  EXPECT_EQ(exemplars.size(), TraceCollector::kMaxExemplars);
  for (const TraceCollector::Exemplar& e : exemplars) {
    EXPECT_GE(e.stream_id, 100U + 3U);  // stream 7 and the first 3 evicted
  }
}

TEST(ObsTrace, TelemetrySnapshotSynthesizesStageSamples) {
  Telemetry telemetry(8);
  { RT_SPAN(&telemetry.trace(), kSocketWrite, 1); }
  const MetricsSnapshot snap = telemetry.snapshot();
  const MetricSample* spans =
      snap.find("rt_stage_spans_total", {{"stage", "socket_write"}});
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->counter_value, 1U);
  ASSERT_NE(snap.find("rt_stage_us_total", {{"stage", "socket_write"}}),
            nullptr);
  ASSERT_NE(snap.find("rt_stage_spans_dropped_total", {}), nullptr);
  // The JSON rendering carries the exemplar section even when empty.
  EXPECT_NE(telemetry.render_json().find("\"slow_stream_exemplars\""),
            std::string::npos);
}

// ------------------------------------------------------------ log sink

TEST(ObsLog, SinkCapturesRecordsAndEmptyRestoresDefault) {
  struct Record {
    LogLevel level;
    std::string tag;
    std::string message;
  };
  std::vector<Record> captured;
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_sink([&captured](LogLevel level, std::string_view tag,
                           std::string_view message) {
    captured.push_back({level, std::string(tag), std::string(message)});
  });

  RT_LOG(Info, "obs-test") << "stream=" << 9 << " captured";
  RT_LOG(Debug, "obs-test") << "below the level filter";

  set_log_sink({});  // restore stderr before asserting (test hygiene)
  set_log_level(saved);

  ASSERT_EQ(captured.size(), 1U);  // the Debug line was filtered out
  EXPECT_EQ(captured[0].level, LogLevel::kInfo);
  EXPECT_EQ(captured[0].tag, "obs-test");
  EXPECT_EQ(captured[0].message, "stream=9 captured");
}

// --------------------------------------------------- scrape E2E (TCP)

std::vector<float> random_waveform(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

struct ServeFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
};

ServeFixture make_fixture(std::size_t hidden, std::uint64_t seed) {
  ServeFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  f.options.format = SparseFormat::kBspc;
  return f;
}

/// Blocking HTTP/1.0 exchange against the metrics port: connect, send
/// one request, read to EOF (the server closes after responding).
std::string http_request(std::uint16_t port, const std::string& head) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = head + "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ADD_FAILURE() << "send failed on metrics socket";
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

/// Parses an unlabeled sample line ("name value") out of Prometheus text.
std::uint64_t counter_value(const std::string& body,
                            const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ' ', 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "metric not found in scrape: " << name;
  return ~0ULL;
}

double gauge_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ' ', 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "metric not found in scrape: " << name;
  return -1.0;
}

std::string scrape(const RecognizerServer& server) {
  return http_body(http_request(server.metrics_port(),
                                "GET /metrics HTTP/1.0\r\nHost: test"));
}

/// The running-total engine families (engine rounds and fused rounds are
/// the step-latency and fused-width histogram counts): every one must be
/// non-decreasing from scrape to scrape, through serving, reset_stats()
/// and restarts.
const std::vector<std::string>& engine_counter_families() {
  static const std::vector<std::string> names = {
      "rt_engine_frames_total",
      "rt_engine_step_latency_us_count",
      "rt_engine_deadline_misses_total",
      "rt_engine_shed_frames_total",
      "rt_engine_rejected_streams_total",
      "rt_fused_batch_width_count",
      "rt_fallback_steps_total",
      "rt_cache_hits_total",
      "rt_cache_misses_total",
      "rt_cache_evictions_total",
      "rt_cache_bytes_total"};
  return names;
}

/// The scrape's engine families equal `stats` (the engines' merged
/// stats, read with their pumps stopped), every one exactly. The gauges
/// are exact too: a family sums the engines' cells in attach order, as
/// merging sums the shards in index order.
void expect_scrape_equals(const std::string& body,
                          const runtime::RuntimeStats& stats) {
  EXPECT_EQ(counter_value(body, "rt_engine_frames_total"),
            stats.frames_processed);
  EXPECT_EQ(counter_value(body, "rt_engine_step_latency_us_count"),
            stats.steps);
  EXPECT_EQ(counter_value(body, "rt_engine_deadline_misses_total"),
            stats.deadline_misses);
  EXPECT_EQ(counter_value(body, "rt_engine_shed_frames_total"),
            stats.shed_frames);
  EXPECT_EQ(counter_value(body, "rt_engine_rejected_streams_total"),
            stats.rejected_streams);
  EXPECT_EQ(gauge_value(body, "rt_engine_busy_us"), stats.busy_us);
  EXPECT_EQ(gauge_value(body, "rt_engine_audio_seconds"),
            stats.audio_seconds);
  EXPECT_EQ(counter_value(body, "rt_fused_batch_width_count"),
            stats.fused_steps);
  EXPECT_EQ(counter_value(body, "rt_fallback_steps_total"),
            stats.fallback_steps);
  EXPECT_EQ(counter_value(body, "rt_cache_hits_total"), stats.cache_hits);
  EXPECT_EQ(counter_value(body, "rt_cache_misses_total"),
            stats.cache_misses);
  EXPECT_EQ(counter_value(body, "rt_cache_evictions_total"),
            stats.cache_evictions);
  EXPECT_EQ(gauge_value(body, "rt_cache_resident_bytes"),
            static_cast<double>(stats.cache_bytes));
}

/// Streams `wave` through `clients` fresh wire connections at once and
/// waits for every final.
void serve_concurrently(const RecognizerServer& server,
                        const std::vector<float>& wave,
                        std::size_t clients) {
  const net::OpenRequest request =
      net::OpenRequest::from_stream_config(serve::StreamConfig{});
  std::vector<net::WireClient> wire(clients);
  for (auto& client : wire) {
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.open(request).has_value());
  }
  for (auto& client : wire) {
    client.send_audio(wave);
    client.send_finish();
  }
  for (auto& client : wire) {
    std::vector<speech::StreamEvent> events;
    ASSERT_EQ(client.collect_until_final(events), std::nullopt);
    client.send_close();
  }
}

TEST(ObsE2E, LiveScrapeMatchesStatsAggregatorExactly) {
  const ServeFixture f = make_fixture(16, 700);
  Telemetry telemetry;

  serve::ShardConfig shard_config;
  shard_config.shards = 2;
  shard_config.engine.telemetry = &telemetry;
  serve::ShardedEngine engine(*f.model, f.masks, f.options, shard_config);
  engine.start();

  net::ServerConfig config;
  config.drive_recognizer = false;
  config.telemetry = &telemetry;
  RecognizerServer server(engine, config);
  ASSERT_NE(server.metrics_port(), 0);
  server.start();

  // Deterministic workload: three wire clients, interleaved chunks.
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < 3; ++s) {
    waves.push_back(random_waveform(4000 + 800 * s, 70 + s));
  }
  const net::OpenRequest request =
      net::OpenRequest::from_stream_config(serve::StreamConfig{});
  std::vector<net::WireClient> clients(waves.size());
  for (auto& client : clients) client.connect("127.0.0.1", server.port());
  for (auto& client : clients) {
    ASSERT_TRUE(client.open(request).has_value());
  }
  for (std::size_t s = 0; s < waves.size(); ++s) {
    clients[s].send_audio(waves[s]);
    clients[s].send_finish();
  }
  for (std::size_t s = 0; s < waves.size(); ++s) {
    std::vector<speech::StreamEvent> events;
    ASSERT_EQ(clients[s].collect_until_final(events), std::nullopt);
    clients[s].send_close();
  }

  // Quiesce the pumps so stats() is final, then scrape the live server.
  engine.stop();
  const serve::GlobalStats stats = engine.stats();
  ASSERT_GT(stats.merged.frames_processed, 0U);

  const std::string response = http_request(
      server.metrics_port(), "GET /metrics HTTP/1.0\r\nHost: test");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = http_body(response);

  // The tentpole guarantee: scrape == merged stats, exactly. Both read
  // the same per-engine counter cells, so no tolerance is needed, not
  // even on the floating-point gauges. That includes the step-latency
  // histogram counting engine rounds one-for-one and the fused-width
  // histogram holding one observation per fused round.
  expect_scrape_equals(body, stats.merged);
  // Fused-step accounting is RuntimeStats' own: every round that
  // dispatched compute is either fused or a width-1 step (with the cache
  // off here, that is every round).
  EXPECT_EQ(stats.merged.fused_steps + stats.merged.fallback_steps,
            stats.merged.steps);
  EXPECT_EQ(stats.merged.fused_width.count(), stats.merged.fused_steps);

  // Net-front counters: all three data-plane clients are visible.
  EXPECT_EQ(counter_value(body, "rt_net_accepted_total"), 3U);
  EXPECT_GT(counter_value(body, "rt_net_bytes_in_total"), 0U);
  EXPECT_GT(counter_value(body, "rt_net_bytes_out_total"), 0U);
  EXPECT_EQ(counter_value(body, "rt_net_protocol_errors_total"), 0U);

  // Per-shard gauges exist for both shards (labeled samples).
  EXPECT_NE(body.find("rt_shard_queue_depth{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(body.find("rt_shard_queue_depth{shard=\"1\"}"),
            std::string::npos);
  // The engine hot path ran under spans: stage timings are non-empty.
  EXPECT_NE(body.find("rt_stage_spans_total{stage=\"layer_step\"}"),
            std::string::npos);

  // Second scrape sees the first one counted.
  const std::string second = http_body(http_request(
      server.metrics_port(), "GET /metrics HTTP/1.0\r\nHost: test"));
  EXPECT_GE(counter_value(second, "rt_net_scrapes_total"), 1U);

  // JSON exposition and HTTP error paths on the same listener.
  const std::string json_response = http_request(
      server.metrics_port(), "GET /metrics.json HTTP/1.0\r\nHost: test");
  EXPECT_NE(json_response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json_response.find("application/json"), std::string::npos);
  EXPECT_NE(http_body(json_response).find("\"rt_engine_frames_total\""),
            std::string::npos);
  EXPECT_NE(http_request(server.metrics_port(),
                         "GET /nope HTTP/1.0\r\nHost: test")
                .find("404"),
            std::string::npos);
  EXPECT_NE(http_request(server.metrics_port(),
                         "POST /metrics HTTP/1.0\r\nHost: test")
                .find("405"),
            std::string::npos);

  server.stop();
}

TEST(ObsE2E, CacheCountersOnLiveScrapeMatchMergedStats) {
  // One shard (one shard-local cache, so the resident gauge equals the
  // merged residency exactly), prefix cache on, and a repeat-heavy
  // workload: the same utterance served three times over the wire. The
  // first two passes compute (the second fills the cache) and the replay
  // must show up as rt_cache_hits_total on a live scrape, equal to the
  // merged stats — same contract as the engine counters above.
  const ServeFixture f = make_fixture(16, 701);
  Telemetry telemetry;

  serve::ShardConfig shard_config;
  shard_config.shards = 1;
  shard_config.engine.telemetry = &telemetry;
  shard_config.engine.cache.enabled = true;
  serve::ShardedEngine engine(*f.model, f.masks, f.options, shard_config);
  engine.start();

  net::ServerConfig config;
  config.drive_recognizer = false;
  config.telemetry = &telemetry;
  RecognizerServer server(engine, config);
  ASSERT_NE(server.metrics_port(), 0);
  server.start();

  const std::vector<float> wave = random_waveform(4800, 73);
  const net::OpenRequest request =
      net::OpenRequest::from_stream_config(serve::StreamConfig{});
  // Three passes, strictly sequential so the third replays a warm cache.
  for (int pass = 0; pass < 3; ++pass) {
    net::WireClient client;
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.open(request).has_value());
    client.send_audio(wave);
    client.send_finish();
    std::vector<speech::StreamEvent> events;
    ASSERT_EQ(client.collect_until_final(events), std::nullopt);
    client.send_close();
  }

  engine.stop();
  const serve::GlobalStats stats = engine.stats();
  ASSERT_GT(stats.merged.cache_hits, 0U);    // the replay hit
  ASSERT_GT(stats.merged.cache_misses, 0U);  // the priming passes computed
  // Frames either hit the cache or were computed — never both, never
  // neither.
  EXPECT_EQ(stats.merged.cache_hits + stats.merged.cache_misses,
            stats.merged.frames_processed);

  const std::string body = http_body(http_request(
      server.metrics_port(), "GET /metrics HTTP/1.0\r\nHost: test"));
  EXPECT_EQ(counter_value(body, "rt_cache_hits_total"),
            stats.merged.cache_hits);
  EXPECT_EQ(counter_value(body, "rt_cache_misses_total"),
            stats.merged.cache_misses);
  EXPECT_EQ(counter_value(body, "rt_cache_evictions_total"),
            stats.merged.cache_evictions);
  EXPECT_GT(counter_value(body, "rt_cache_bytes_total"), 0U);
  EXPECT_EQ(gauge_value(body, "rt_cache_resident_bytes"),
            static_cast<double>(stats.merged.cache_bytes));

  server.stop();
}

TEST(ObsE2E, TwoCacheShardsScrapeSumsResidencyAndCounters) {
  // Two cache-enabled shards, each holding entries of its own: the
  // residency family must be the fleet's (the sum over shards), not the
  // last shard to publish, and every engine family must equal the
  // merged stats.
  const ServeFixture f = make_fixture(16, 702);
  Telemetry telemetry;

  serve::ShardConfig shard_config;
  shard_config.shards = 2;
  shard_config.policy = serve::RoutePolicy::kRoundRobin;
  shard_config.engine.telemetry = &telemetry;
  shard_config.engine.cache.enabled = true;
  serve::ShardedEngine engine(*f.model, f.masks, f.options, shard_config);
  engine.start();

  net::ServerConfig config;
  config.drive_recognizer = false;
  config.telemetry = &telemetry;
  RecognizerServer server(engine, config);
  ASSERT_NE(server.metrics_port(), 0);
  server.start();

  // Six sequential passes, dealt round-robin: each shard computes the
  // utterance twice (its cache admits it on the second computation),
  // then replays it once from cache.
  const std::vector<float> wave = random_waveform(4800, 74);
  for (int pass = 0; pass < 6; ++pass) serve_concurrently(server, wave, 1);

  engine.stop();
  const serve::GlobalStats stats = engine.stats();
  ASSERT_GT(engine.shard_stats(0).cache_bytes, 0U);
  ASSERT_GT(engine.shard_stats(1).cache_bytes, 0U);
  ASSERT_GT(stats.merged.cache_hits, 0U);
  expect_scrape_equals(scrape(server), stats.merged);

  server.stop();
}

TEST(ObsE2E, ScrapeNeverGoesBackwardsWhileServingOrAcrossReset) {
  // A scraper thread polls /metrics while both pumps serve (the cross-
  // thread cell reads ThreadSanitizer checks); no engine family may
  // ever drop. reset_stats() then zeroes stats() but not the scrape,
  // and a second serving window adds on top of the retired totals.
  const ServeFixture f = make_fixture(16, 703);
  Telemetry telemetry;

  serve::ShardConfig shard_config;
  shard_config.shards = 2;
  shard_config.policy = serve::RoutePolicy::kRoundRobin;
  shard_config.engine.telemetry = &telemetry;
  shard_config.engine.cache.enabled = true;
  serve::ShardedEngine engine(*f.model, f.masks, f.options, shard_config);
  engine.start();

  net::ServerConfig config;
  config.drive_recognizer = false;
  config.telemetry = &telemetry;
  RecognizerServer server(engine, config);
  ASSERT_NE(server.metrics_port(), 0);
  server.start();

  std::atomic<bool> serving{true};
  std::vector<std::string> dropped;  // scraper-thread only until join
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    std::map<std::string, double> last;
    do {
      const std::string body = scrape(server);
      ++scrapes;
      for (const std::string& name : engine_counter_families()) {
        const double value = static_cast<double>(counter_value(body, name));
        if (value < last[name]) dropped.push_back(name);
        last[name] = value;
      }
      for (const char* name :
           {"rt_engine_busy_us", "rt_engine_audio_seconds"}) {
        const double value = gauge_value(body, name);
        if (value < last[name]) dropped.push_back(name);
        last[name] = value;
      }
    } while (serving.load(std::memory_order_acquire));
  });
  const std::vector<float> wave = random_waveform(6400, 75);
  serve_concurrently(server, wave, 4);
  serve_concurrently(server, wave, 4);
  serving.store(false, std::memory_order_release);
  scraper.join();
  EXPECT_TRUE(dropped.empty()) << dropped.size() << " drops, first "
                               << dropped.front();

  engine.stop();
  const runtime::RuntimeStats first = engine.stats().merged;
  ASSERT_GT(first.cache_hits, 0U);
  const std::string before = scrape(server);
  expect_scrape_equals(before, first);

  engine.reset_stats();
  const runtime::RuntimeStats zeroed = engine.stats().merged;
  EXPECT_EQ(zeroed.frames_processed, 0U);
  EXPECT_EQ(zeroed.steps, 0U);
  EXPECT_EQ(zeroed.cache_hits, 0U);
  EXPECT_EQ(zeroed.cache_misses, 0U);
  EXPECT_EQ(zeroed.fused_steps + zeroed.fallback_steps, 0U);
  EXPECT_EQ(zeroed.busy_us, 0.0);
  EXPECT_EQ(zeroed.step_latency.count(), 0U);
  // Residency is a level, not a count since the reset: it stays.
  EXPECT_EQ(zeroed.cache_bytes, first.cache_bytes);
  const std::string after = scrape(server);
  for (const std::string& name : engine_counter_families()) {
    EXPECT_EQ(counter_value(after, name), counter_value(before, name))
        << name;
  }

  // A second window counts on top of what the reset retired.
  engine.start();
  serve_concurrently(server, wave, 2);
  engine.stop();
  const runtime::RuntimeStats second = engine.stats().merged;
  ASSERT_GT(second.frames_processed, 0U);
  const std::string last = scrape(server);
  EXPECT_EQ(counter_value(last, "rt_engine_frames_total"),
            first.frames_processed + second.frames_processed);
  EXPECT_EQ(counter_value(last, "rt_engine_step_latency_us_count"),
            first.steps + second.steps);
  EXPECT_EQ(counter_value(last, "rt_cache_hits_total"),
            first.cache_hits + second.cache_hits);
  EXPECT_EQ(counter_value(last, "rt_cache_misses_total"),
            first.cache_misses + second.cache_misses);
  EXPECT_EQ(gauge_value(last, "rt_cache_resident_bytes"),
            static_cast<double>(second.cache_bytes));

  server.stop();
}

}  // namespace
}  // namespace rtmobile
