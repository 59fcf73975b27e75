#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::size_t feature_frames(std::size_t samples) {
  return samples < kFrameLength ? 0
                                : 1 + (samples - kFrameLength) / kFrameShift;
}

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::size_t StreamRecord::chunks() const {
  return (samples + kChunkSamples - 1) / kChunkSamples;
}

double StreamRecord::finish_due_us() const {
  return t0_us + static_cast<double>(chunks() - 1) * interval_us;
}

double StreamRecord::due_for_frames(std::size_t frames) const {
  const std::size_t last = frames > 0 ? frames - 1 : 0;
  const std::size_t needed = (last + kDeltaLookahead) * kFrameShift +
                             kFrameLength;
  // Frames whose lookahead runs past the audio are released by FINISH,
  // which is sent together with the last chunk.
  if (needed > samples) return finish_due_us();
  return t0_us + static_cast<double>((needed - 1) / kChunkSamples) *
                     interval_us;
}

std::size_t Ledger::add(const StreamRecord& record) {
  streams_.push_back(record);
  return streams_.size() - 1;
}

void Ledger::on_event(std::size_t stream,
                      const rtmobile::speech::StreamEvent& event,
                      double receive_us) {
  StreamRecord& s = streams_[stream];
  ++events_;
  if (event.kind != rtmobile::speech::StreamEventKind::kHypothesis) {
    s.failed = true;  // shed, rejected or aborted: not the full answer
  }
  if (s.first_event_us < 0.0) s.first_event_us = receive_us;
  const double recognized =
      event.is_final
          ? static_cast<double>(s.samples) / static_cast<double>(kSampleRate)
          : static_cast<double>(event.frames * kFrameShift) /
                static_cast<double>(kSampleRate);
  if (recognized > s.recognized_s) {
    recognized_seconds_ += recognized - s.recognized_s;
    s.recognized_s = recognized;
  }
  s.hypothesis.insert(s.hypothesis.end(), event.stable.begin(),
                      event.stable.end());
  const double due =
      event.is_final ? s.finish_due_us() : s.due_for_frames(event.frames);
  if (in_window(due)) event_lag_ms_.push_back((receive_us - due) * 1e-3);
  if (event.is_final && !s.done) {
    ++finished_;
    s.done = true;
    s.final_us = receive_us;
    s.final_frames = event.frames;
  }
}

std::vector<double> Ledger::first_partial_ms() const {
  std::vector<double> out;
  for (const StreamRecord& s : streams_) {
    if (in_window(s.t0_us) && s.first_event_us >= 0.0) {
      out.push_back((s.first_event_us - s.t0_us) * 1e-3);
    }
  }
  return out;
}

std::vector<double> Ledger::final_ms() const {
  std::vector<double> out;
  for (const StreamRecord& s : streams_) {
    if (in_window(s.t0_us) && s.done) {
      out.push_back((s.final_us - s.finish_due_us()) * 1e-3);
    }
  }
  return out;
}

std::size_t Ledger::failed() const {
  return static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(),
                    [](const StreamRecord& s) { return s.failed || !s.done; }));
}

void MetricList::set(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void MetricList::merge(const MetricList& other) {
  for (const Entry& e : other.entries_) set(e.name, e.value, e.unit);
}

double MetricList::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string MetricList::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(entries_[i].name) + ": {\"value\": " +
           json_number(entries_[i].value) +
           ", \"unit\": " + json_string(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricList::to_text() const {
  std::string out;
  char line[160];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "  %-40s %14.4f %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
