// Typed metrics for live inspection of a serving process.
//
// A MetricsRegistry holds counters, gauges, and fixed-bucket histograms.
// Instruments are registered once at setup (names, help text, and label
// sets are allocated there and never again), and the hot path touches
// only pre-resolved pointers: Counter::add and Histogram::observe are a
// relaxed atomic add on a cache-line-padded cell, so the 10 ms frame
// path stays allocation-free and lock-free. Snapshots read every cell
// and render the result as Prometheus text exposition format or JSON;
// counter reads are exact (atomic adds never lose increments), which is
// what lets a /metrics scrape be asserted equal to the engines' merged
// stats after a deterministic workload.
//
// Registration is idempotent: asking for an existing (name, labels) pair
// returns the same instrument (the kind must match), so layers that are
// constructed repeatedly against one registry share cells instead of
// colliding.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtmobile::obs {

/// Label set fixed at registration ("{shard="0"}"). Order is preserved
/// into the rendered output.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer cell.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cell_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_.load(std::memory_order_relaxed);
  }
  void reset() { cell_.store(0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::uint64_t> cell_{0};
};

/// Last-write-wins floating-point cell (queue depths, lag, ratios).
class Gauge {
 public:
  void set(double v) { cell_.store(v, std::memory_order_relaxed); }
  void add(double v) { cell_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return cell_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<double> cell_{0.0};
};

/// Point-in-time histogram contents in Prometheus cumulative-bucket
/// form: cumulative[i] counts observations <= bounds[i]; the final entry
/// (no bound) is the implicit +Inf bucket and always equals count.
struct HistogramData {
  std::vector<double> bounds;                // ascending upper bounds
  std::vector<std::uint64_t> cumulative;     // size bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram: bounds chosen at registration, observe() is a
/// binary search plus two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] HistogramData snapshot() const;
  [[nodiscard]] std::span<const double> bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  /// Per-bucket (non-cumulative) counts; [bounds_.size()] is +Inf.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  alignas(64) std::atomic<double> sum_{0.0};
};

/// Exponential-ish default latency buckets in microseconds, 10 us .. 10 s.
[[nodiscard]] std::vector<double> default_latency_buckets_us();

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One rendered sample: an instrument's identity plus its value at
/// snapshot time.
struct MetricSample {
  std::string name;
  std::string help;
  Labels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0.0;         // kGauge
  HistogramData histogram;          // kHistogram
};

/// Exact point-in-time view of a registry, renderable as Prometheus
/// text exposition format or JSON.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;
  /// The counter sample matching (name, labels), or nullptr.
  [[nodiscard]] const MetricSample* find(std::string_view name,
                                         const Labels& labels = {}) const;
};

class MetricsRegistry {
 public:
  /// Registers (or finds) a counter. Throws if the name+labels pair is
  /// already registered as a different kind.
  Counter& counter(std::string name, std::string help, Labels labels = {});
  Gauge& gauge(std::string name, std::string help, Labels labels = {});
  Histogram& histogram(std::string name, std::string help,
                       std::vector<double> upper_bounds, Labels labels = {});

  /// Reads every instrument. Counters are exact.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::size_t instrument_count() const;

 private:
  struct Entry {
    InstrumentKind kind;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* find_entry(std::string_view name, const Labels& labels);

  mutable std::mutex mutex_;  // registration + snapshot
  std::deque<Entry> entries_;
};

}  // namespace rtmobile::obs
