#include "runtime/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rtmobile::runtime {

void LatencyRecorder::set_cap(std::size_t cap) {
  RT_REQUIRE(cap == 0 || cap >= 2,
             "latency recorder: cap must be 0 (unbounded) or >= 2");
  cap_ = cap;
  if (cap_ == 0) return;
  while (samples_.size() >= cap_ && samples_.size() > 1) thin();
  // Resync the sampling grid with what has already been observed —
  // uncapped recording never advances next_keep_, so without this a
  // newly capped recorder would skip every future sample.
  next_keep_ = observed_ + stride_;
}

void LatencyRecorder::record(double value_us) {
  ++observed_;
  if (cap_ == 0) {
    samples_.push_back(value_us);
    return;
  }
  if (observed_ != next_keep_) return;  // off the sampling grid: skip
  samples_.push_back(value_us);
  next_keep_ += stride_;
  if (samples_.size() >= cap_) {
    thin();
    // Resume sampling from what has actually been observed (not a
    // from-observation-1 grid: merges splice in foreign sample sets, so
    // observed_ is the only anchor that never leaves the recorder
    // silent).
    next_keep_ = observed_ + stride_;
  }
}

void LatencyRecorder::thin() {
  std::size_t write = 0;
  for (std::size_t read = 0; read < samples_.size(); read += 2) {
    samples_[write++] = samples_[read];
  }
  samples_.resize(write);
  stride_ *= 2;
}

double LatencyRecorder::mean_us() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (const double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

void LatencyRecorder::merge_from(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  observed_ += other.observed_;
  if (cap_ == 0) return;
  stride_ = std::max(stride_, other.stride_);
  while (samples_.size() >= cap_ && samples_.size() > 1) thin();
  // Resume systematic sampling from here; the grids of the two inputs
  // cannot be reconciled exactly once either side has decimated.
  next_keep_ = observed_ + stride_;
}

void LatencyRecorder::reset() {
  samples_.clear();
  observed_ = 0;
  stride_ = 1;
  next_keep_ = 1;
}

double LatencyRecorder::quantile_us(double q) const {
  RT_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q must be in [0, 1]");
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the ceil(q*n)-th smallest sample (1-based), q=0 -> min.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(std::llround(rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace rtmobile::runtime
