#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/check.hpp"
#include "util/report.hpp"

namespace rtmobile::obs {

namespace {

/// Formats a double the way Prometheus expects: full precision, no
/// locale, "+Inf" spelled out by the caller where needed.
[[nodiscard]] std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[nodiscard]] std::string format_count(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

/// Renders {a="x",b="y"}; empty labels render as nothing. `extra` lets
/// histogram buckets append their `le` label.
[[nodiscard]] std::string render_labels(
    const Labels& labels, const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  const auto append = [&](const std::string& k, const std::string& v) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  };
  for (const auto& [k, v] : labels) append(k, v);
  if (extra != nullptr) append(extra->first, extra->second);
  out += '}';
  return out;
}

[[nodiscard]] const char* kind_name(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ------------------------------------------------------------ Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  RT_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram: bucket bounds must be ascending");
  RT_REQUIRE(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                 bounds_.end(),
             "histogram: bucket bounds must be distinct");
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - bounds_.begin());  // +Inf at size()
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

HistogramData Histogram::snapshot() const {
  HistogramData data;
  data.bounds = bounds_;
  data.cumulative.resize(buckets_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    data.cumulative[i] = running;
  }
  data.count = running;
  data.sum = sum_.load(std::memory_order_relaxed);
  return data;
}

std::vector<double> default_latency_buckets_us() {
  // 10 us .. 10 s in 1-2.5-5 decades: fine where step latencies live,
  // coarse where only pathologies land.
  std::vector<double> bounds;
  for (double decade = 10.0; decade <= 1e7; decade *= 10.0) {
    bounds.push_back(decade);
    if (decade * 2.5 <= 1e7) bounds.push_back(decade * 2.5);
    if (decade * 5.0 <= 1e7) bounds.push_back(decade * 5.0);
  }
  return bounds;
}

// ------------------------------------------------------------- Registry

MetricsRegistry::Entry* MetricsRegistry::find_entry(std::string_view name,
                                                    const Labels& labels) {
  for (Entry& entry : entries_) {
    if (entry.name == name && entry.labels == labels) return &entry;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string name, std::string help,
                                  Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = find_entry(name, labels); existing != nullptr) {
    RT_REQUIRE(existing->kind == InstrumentKind::kCounter,
               "metrics: instrument re-registered as a different kind");
    return *existing->counter;
  }
  Entry& entry = entries_.emplace_back();
  entry.kind = InstrumentKind::kCounter;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.labels = std::move(labels);
  entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(std::string name, std::string help,
                              Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = find_entry(name, labels); existing != nullptr) {
    RT_REQUIRE(existing->kind == InstrumentKind::kGauge,
               "metrics: instrument re-registered as a different kind");
    return *existing->gauge;
  }
  Entry& entry = entries_.emplace_back();
  entry.kind = InstrumentKind::kGauge;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.labels = std::move(labels);
  entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(std::string name, std::string help,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* existing = find_entry(name, labels); existing != nullptr) {
    RT_REQUIRE(existing->kind == InstrumentKind::kHistogram,
               "metrics: instrument re-registered as a different kind");
    return *existing->histogram;
  }
  Entry& entry = entries_.emplace_back();
  entry.kind = InstrumentKind::kHistogram;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.labels = std::move(labels);
  entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  return *entry.histogram;
}

std::size_t MetricsRegistry::instrument_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.samples.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSample sample;
    sample.name = entry.name;
    sample.help = entry.help;
    sample.labels = entry.labels;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case InstrumentKind::kCounter:
        sample.counter_value = entry.counter->value();
        break;
      case InstrumentKind::kGauge:
        sample.gauge_value = entry.gauge->value();
        break;
      case InstrumentKind::kHistogram:
        sample.histogram = entry.histogram->snapshot();
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

// ------------------------------------------------------------- Snapshot

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string last_name;
  for (const MetricSample& sample : samples) {
    if (sample.name != last_name) {
      // One HELP/TYPE header per family; label variants follow it.
      if (!sample.help.empty()) {
        out += "# HELP " + sample.name + ' ' + sample.help + '\n';
      }
      out += "# TYPE " + sample.name + ' ' + kind_name(sample.kind) + '\n';
      last_name = sample.name;
    }
    switch (sample.kind) {
      case InstrumentKind::kCounter:
        out += sample.name + render_labels(sample.labels, nullptr) + ' ' +
               format_count(sample.counter_value) + '\n';
        break;
      case InstrumentKind::kGauge:
        out += sample.name + render_labels(sample.labels, nullptr) + ' ' +
               format_value(sample.gauge_value) + '\n';
        break;
      case InstrumentKind::kHistogram: {
        const HistogramData& h = sample.histogram;
        for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
          const std::pair<std::string, std::string> le{
              "le", i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf"};
          out += sample.name + "_bucket" +
                 render_labels(sample.labels, &le) + ' ' +
                 format_count(h.cumulative[i]) + '\n';
        }
        out += sample.name + "_sum" + render_labels(sample.labels, nullptr) +
               ' ' + format_value(h.sum) + '\n';
        out += sample.name + "_count" +
               render_labels(sample.labels, nullptr) + ' ' +
               format_count(h.count) + '\n';
        break;
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  // Rendered by hand (not JsonRecord) because histogram samples nest.
  std::string out = "[\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& sample = samples[i];
    out += "  {\"name\": \"" + json_escape(sample.name) + "\", \"kind\": \"";
    out += kind_name(sample.kind);
    out += "\", \"labels\": {";
    for (std::size_t l = 0; l < sample.labels.size(); ++l) {
      if (l > 0) out += ", ";
      out += '"' + json_escape(sample.labels[l].first) + "\": \"" +
             json_escape(sample.labels[l].second) + '"';
    }
    out += "}, ";
    switch (sample.kind) {
      case InstrumentKind::kCounter:
        out += "\"value\": " + format_count(sample.counter_value);
        break;
      case InstrumentKind::kGauge:
        out += "\"value\": " + format_value(sample.gauge_value);
        break;
      case InstrumentKind::kHistogram: {
        const HistogramData& h = sample.histogram;
        out += "\"count\": " + format_count(h.count) +
               ", \"sum\": " + format_value(h.sum) + ", \"buckets\": [";
        for (std::size_t b = 0; b < h.cumulative.size(); ++b) {
          if (b > 0) out += ", ";
          out += "{\"le\": ";
          out += b < h.bounds.size() ? format_value(h.bounds[b]) : "\"+Inf\"";
          out += ", \"n\": " + format_count(h.cumulative[b]) + '}';
        }
        out += ']';
        break;
      }
    }
    out += i + 1 < samples.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

}  // namespace rtmobile::obs
