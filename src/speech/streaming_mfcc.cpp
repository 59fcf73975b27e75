#include "speech/streaming_mfcc.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rtmobile::speech {
namespace {

// Regression window and normalizer shared with add_delta_features.
constexpr int kDeltaWindow = kDeltaRegressionWindow;
constexpr float kDeltaDenominator = kDeltaRegressionDenominator;
// With Δ/ΔΔ enabled a frame is final once this many successors exist:
// ΔΔ at t reads Δ at t±window, and Δ at t+window reads base rows up to
// t + 2*window.
constexpr std::size_t kDeltaLookahead =
    2 * static_cast<std::size_t>(kDeltaWindow);

std::shared_ptr<const MfccExtractor> require_extractor(
    std::shared_ptr<const MfccExtractor> extractor) {
  RT_REQUIRE(extractor != nullptr, "streaming MFCC needs an extractor");
  return extractor;
}

}  // namespace

StreamingMfcc::StreamingMfcc(const MfccConfig& config)
    : StreamingMfcc(std::make_shared<const MfccExtractor>(config)) {}

StreamingMfcc::StreamingMfcc(std::shared_ptr<const MfccExtractor> extractor)
    : extractor_(require_extractor(std::move(extractor))),
      frame_scratch_(extractor_->config()) {
  RT_REQUIRE(!config().cepstral_mean_norm,
             "streaming MFCC cannot apply per-utterance CMN; disable "
             "cepstral_mean_norm");
}

void StreamingMfcc::push(std::span<const float> samples) {
  RT_REQUIRE(!finished_, "push after finish");
  buffer_.insert(buffer_.end(), samples.begin(), samples.end());
  compact_base();

  const MfccConfig& cfg = config();
  const std::size_t dim = cfg.num_cepstra;
  while (true) {
    const std::size_t frame_start = num_frames_ * cfg.frame_shift;
    RT_ASSERT(frame_start >= buffer_start_, "frame window fell off buffer");
    const std::size_t offset = frame_start - buffer_start_;
    if (offset + cfg.frame_length > buffer_.size()) break;

    const float prev =
        offset > 0 ? buffer_[offset - 1]
                   : (frame_start > 0 ? prev_sample_ : 0.0F);
    base_.resize(base_.size() + dim);
    extractor_->extract_frame(
        {buffer_.data() + offset, cfg.frame_length}, prev,
        {base_.data() + (num_frames_ - base_first_) * dim, dim},
        frame_scratch_);
    ++num_frames_;
  }

  // Compact: drop samples no future frame window can reach, keeping one
  // sample of pre-emphasis history before the next frame start. When
  // frame_shift > frame_length the next window starts beyond the data
  // received so far, so clamp to what the buffer actually holds.
  const std::size_t next_start = num_frames_ * cfg.frame_shift;
  if (next_start > buffer_start_ + 1) {
    const std::size_t drop =
        std::min(next_start - 1 - buffer_start_, buffer_.size());
    if (drop >= cfg.frame_shift) {  // amortize the memmove
      prev_sample_ = buffer_[drop - 1];
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(drop));
      buffer_start_ += drop;
    }
  }
}

void StreamingMfcc::compact_base() {
  // The regression windows are symmetric: the next frame to pop reads
  // base rows back to frames_emitted() - kDeltaLookahead as well.
  const std::size_t lookback = config().add_deltas ? kDeltaLookahead : 0;
  const std::size_t keep_from = emitted_ > lookback ? emitted_ - lookback : 0;
  const std::size_t drop = keep_from - base_first_;
  if (drop == 0 || drop < num_frames_ - keep_from) return;
  base_.erase(base_.begin(),
              base_.begin() +
                  static_cast<std::ptrdiff_t>(drop * config().num_cepstra));
  base_first_ = keep_from;
}

void StreamingMfcc::finish() { finished_ = true; }

std::size_t StreamingMfcc::ready_frames() const {
  std::size_t final_count = num_frames_;
  if (config().add_deltas && !finished_) {
    final_count = num_frames_ > kDeltaLookahead
                      ? num_frames_ - kDeltaLookahead
                      : 0;
  }
  return final_count - std::min(emitted_, final_count);
}

std::span<const float> StreamingMfcc::base_row(std::size_t t) const {
  const std::size_t last = num_frames_ - 1;
  const std::size_t clamped = std::min(t, last);
  RT_ASSERT(clamped >= base_first_, "base row already dropped");
  const std::size_t dim = config().num_cepstra;
  return {base_.data() + (clamped - base_first_) * dim, dim};
}

float StreamingMfcc::delta_at(std::size_t t, std::size_t d) const {
  float acc = 0.0F;
  for (int n = 1; n <= kDeltaWindow; ++n) {
    const std::size_t un = static_cast<std::size_t>(n);
    const std::size_t back = t >= un ? t - un : 0;  // left edge clamps to 0
    acc += static_cast<float>(n) * (base_row(t + un)[d] - base_row(back)[d]);
  }
  return acc / kDeltaDenominator;
}

float StreamingMfcc::delta2_at(std::size_t t, std::size_t d) const {
  const std::size_t last = num_frames_ - 1;
  float acc = 0.0F;
  for (int n = 1; n <= kDeltaWindow; ++n) {
    const std::size_t un = static_cast<std::size_t>(n);
    const std::size_t fwd = std::min(t + un, last);
    const std::size_t back = t >= un ? t - un : 0;
    acc += static_cast<float>(n) * (delta_at(fwd, d) - delta_at(back, d));
  }
  return acc / kDeltaDenominator;
}

void StreamingMfcc::write_row(std::size_t t, std::span<float> out) const {
  const std::size_t dim = config().num_cepstra;
  const std::span<const float> base = base_row(t);
  std::copy(base.begin(), base.end(), out.begin());
  if (config().add_deltas) {
    for (std::size_t d = 0; d < dim; ++d) {
      out[dim + d] = delta_at(t, d);
      out[2 * dim + d] = delta2_at(t, d);
    }
  }
}

Matrix StreamingMfcc::pop_ready(std::size_t max_frames) {
  const std::size_t count = std::min(ready_frames(), max_frames);
  Matrix out(count, feature_dim());
  for (std::size_t i = 0; i < count; ++i) {
    write_row(emitted_ + i, out.row(i));
  }
  emitted_ += count;
  return out;
}

bool StreamingMfcc::pop_row(std::span<float> out) {
  if (ready_frames() == 0) return false;
  RT_REQUIRE(out.size() == feature_dim(),
             "pop_row: output must be feature_dim-sized");
  write_row(emitted_, out);
  ++emitted_;
  return true;
}

}  // namespace rtmobile::speech
