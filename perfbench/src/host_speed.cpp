#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "report.hpp"

namespace perfbench {
namespace {

/// fp32: 1024 x 1024 (4 MB); int8: 1024 x 2048 (2 MB). Together about the
/// served model's working set, so the probe sees the same cache pressure.
constexpr std::size_t kRows = 1024;
constexpr std::size_t kFloatCols = 1024;
constexpr std::size_t kInt8Cols = 2048;
constexpr std::size_t kLanes = 8;

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : w_(kRows * kFloatCols),
      x_(kFloatCols),
      q_(kRows * kInt8Cols),
      qx_(kInt8Cols) {
  // Fixed contents: the probe's work never depends on the run.
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_[i] = static_cast<float>(static_cast<int>(i % 17) - 8) * 0.01f;
  }
  for (std::size_t i = 0; i < x_.size(); ++i) {
    x_[i] = static_cast<float>(static_cast<int>(i % 13) - 6) * 0.1f;
  }
  for (std::size_t i = 0; i < q_.size(); ++i) {
    q_[i] = static_cast<std::int8_t>(static_cast<int>(i % 251) - 125);
  }
  for (std::size_t i = 0; i < qx_.size(); ++i) {
    qx_[i] = static_cast<std::int8_t>(static_cast<int>(i % 7) - 3);
  }
}

void HostSpeedProbe::sample() {
  const double t0 = now_us();
  float total = 0.0f;
  for (std::size_t r = 0; r < kRows; ++r) {
    const float* row = w_.data() + r * kFloatCols;
    std::array<float, kLanes> acc{};
    for (std::size_t c = 0; c < kFloatCols; c += kLanes) {
      for (std::size_t k = 0; k < kLanes; ++k) acc[k] += row[c + k] * x_[c + k];
    }
    for (const float a : acc) total += a;
  }
  std::int64_t itotal = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::int8_t* row = q_.data() + r * kInt8Cols;
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < kInt8Cols; ++c) {
      acc += static_cast<std::int32_t>(row[c]) *
             static_cast<std::int32_t>(qx_[c]);
    }
    itotal += acc;
  }
  sink_ += static_cast<double>(total) + static_cast<double>(itotal);
  samples_us_.push_back(now_us() - t0);
}

void HostSpeedProbe::maybe_sample(double now, double interval_us) {
  if (now < next_us_) return;
  next_us_ = now + interval_us;
  sample();
}

double HostSpeedProbe::median_us() const { return quantile(samples_us_, 0.5); }

}  // namespace perfbench
