#include "speech/mfcc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sparse/fft.hpp"
#include "util/check.hpp"

namespace rtmobile::speech {

double hz_to_mel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }

double mel_to_hz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

MelFilterBank::MelFilterBank(const MfccConfig& config)
    : num_bins_(config.fft_size / 2 + 1) {
  RT_REQUIRE(config.num_mel_filters >= 2, "need at least two mel filters");
  RT_REQUIRE(config.high_freq_hz <= config.sample_rate_hz / 2.0,
             "high frequency above Nyquist");
  RT_REQUIRE(config.low_freq_hz >= 0.0 &&
                 config.low_freq_hz < config.high_freq_hz,
             "invalid mel frequency range");

  const double mel_lo = hz_to_mel(config.low_freq_hz);
  const double mel_hi = hz_to_mel(config.high_freq_hz);
  const std::size_t n = config.num_mel_filters;
  // n + 2 equally-spaced mel points define n triangles.
  std::vector<double> edges_hz(n + 2);
  for (std::size_t i = 0; i < edges_hz.size(); ++i) {
    const double mel = mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                    static_cast<double>(n + 1);
    edges_hz[i] = mel_to_hz(mel);
  }
  const double hz_per_bin =
      config.sample_rate_hz / static_cast<double>(config.fft_size);

  runs_.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    const double left = edges_hz[f];
    const double center = edges_hz[f + 1];
    const double right = edges_hz[f + 2];
    Run& run = runs_[f];
    run.first_bin = num_bins_;
    run.offset = weights_.size();
    run.count = 0;
    // The support (left, right) is open and bin frequencies ascend, so
    // the bins inside it are one contiguous run.
    for (std::size_t bin = 0; bin < num_bins_; ++bin) {
      const double hz = static_cast<double>(bin) * hz_per_bin;
      if (hz <= left || hz >= right) continue;
      const double w = hz <= center ? (hz - left) / (center - left)
                                    : (right - hz) / (right - center);
      if (run.count == 0) run.first_bin = bin;
      weights_.push_back(static_cast<float>(w));
      ++run.count;
    }
  }
}

void MelFilterBank::apply(std::span<const float> power_spectrum,
                          std::span<float> energies) const {
  RT_REQUIRE(power_spectrum.size() == num_bins_,
             "power spectrum bin count mismatch");
  RT_REQUIRE(energies.size() == runs_.size(),
             "mel energies must hold num_filters values");
  for (std::size_t f = 0; f < runs_.size(); ++f) {
    const Run& run = runs_[f];
    const float* weights = weights_.data() + run.offset;
    const float* power = power_spectrum.data() + run.first_bin;
    double acc = 0.0;
    for (std::size_t j = 0; j < run.count; ++j) {
      acc += static_cast<double>(weights[j]) * static_cast<double>(power[j]);
    }
    energies[f] = static_cast<float>(acc);
  }
}

std::vector<float> MelFilterBank::filter(std::size_t f) const {
  RT_REQUIRE(f < runs_.size(), "filter index out of range");
  const Run& run = runs_[f];
  std::vector<float> dense(num_bins_, 0.0F);
  std::copy_n(weights_.begin() + static_cast<std::ptrdiff_t>(run.offset),
              run.count,
              dense.begin() + static_cast<std::ptrdiff_t>(run.first_bin));
  return dense;
}

MfccExtractor::MfccExtractor(const MfccConfig& config)
    : config_(config), mel_bank_(config), fft_plan_(config.fft_size) {
  RT_REQUIRE(config.frame_length > 0 && config.frame_shift > 0,
             "frame geometry must be positive");
  RT_REQUIRE(is_power_of_two(config.fft_size) &&
                 config.fft_size >= config.frame_length,
             "fft_size must be a power of two >= frame_length");
  RT_REQUIRE(config.num_cepstra <= config.num_mel_filters,
             "cannot keep more cepstra than mel filters");

  window_.resize(config.frame_length);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    window_[i] = static_cast<float>(
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               static_cast<double>(window_.size() - 1)));
  }

  // Orthonormal DCT-II, stored transposed (see dct_t_).
  const std::size_t m_count = config.num_mel_filters;
  const std::size_t c_count = config.num_cepstra;
  dct_t_.resize(c_count * m_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    const double scale = c == 0 ? std::sqrt(1.0 / static_cast<double>(m_count))
                                : std::sqrt(2.0 / static_cast<double>(m_count));
    for (std::size_t m = 0; m < m_count; ++m) {
      dct_t_[m * c_count + c] = static_cast<double>(static_cast<float>(
          scale * std::cos(std::numbers::pi * static_cast<double>(c) *
                           (static_cast<double>(m) + 0.5) /
                           static_cast<double>(m_count))));
    }
  }
}

std::size_t MfccExtractor::feature_dim() const {
  return config_.add_deltas ? config_.num_cepstra * 3 : config_.num_cepstra;
}

std::size_t MfccExtractor::frame_count(std::size_t num_samples) const {
  if (num_samples < config_.frame_length) return 0;
  return 1 + (num_samples - config_.frame_length) / config_.frame_shift;
}

void MfccExtractor::extract_frame(std::span<const float> samples,
                                  float prev_sample,
                                  std::span<float> cepstra,
                                  FrameScratch& scratch) const {
  RT_REQUIRE(samples.size() == config_.frame_length,
             "extract_frame: window must be frame_length samples");
  RT_REQUIRE(cepstra.size() == config_.num_cepstra,
             "extract_frame: output must hold num_cepstra values");
  RT_REQUIRE(scratch.frame.size() == config_.frame_length &&
                 scratch.fft.size() == 2 * config_.fft_size &&
                 scratch.power.size() == config_.fft_size / 2 + 1 &&
                 scratch.mel.size() == config_.num_mel_filters &&
                 scratch.dct.size() == config_.num_cepstra,
             "extract_frame: scratch sized for a different config");

  // Pre-emphasis + Hamming window.
  const float alpha = static_cast<float>(config_.preemphasis);
  std::vector<float>& frame = scratch.frame;
  frame[0] = (samples[0] - alpha * prev_sample) * window_[0];
  for (std::size_t i = 1; i < frame.size(); ++i) {
    frame[i] = (samples[i] - alpha * samples[i - 1]) * window_[i];
  }
  rtmobile::power_spectrum(frame, fft_plan_, scratch.power, scratch.fft);
  mel_bank_.apply(scratch.power, scratch.mel);
  // Log compression, then the DCT-II band by band: each cepstrum sums
  // its products in ascending band order, as the row-major form does.
  const std::size_t c_count = config_.num_cepstra;
  double* acc = scratch.dct.data();
  std::fill_n(acc, c_count, 0.0);
  for (std::size_t m = 0; m < scratch.mel.size(); ++m) {
    const double log_energy = static_cast<double>(
        std::log(std::max(scratch.mel[m], 1e-10F)));  // floor avoids log(0)
    const double* column = dct_t_.data() + m * c_count;
    for (std::size_t c = 0; c < c_count; ++c) {
      acc[c] += column[c] * log_energy;
    }
  }
  for (std::size_t c = 0; c < c_count; ++c) {
    cepstra[c] = static_cast<float>(acc[c]);
  }
}

Matrix MfccExtractor::extract(std::span<const float> waveform) const {
  const std::size_t frames = frame_count(waveform.size());
  RT_REQUIRE(frames > 0, "waveform shorter than one frame");

  Matrix cepstra(frames, config_.num_cepstra);
  FrameScratch scratch(config_);
  for (std::size_t t = 0; t < frames; ++t) {
    const std::size_t start = t * config_.frame_shift;
    const float prev = start > 0 ? waveform[start - 1] : 0.0F;
    extract_frame(waveform.subspan(start, config_.frame_length), prev,
                  cepstra.row(t), scratch);
  }

  if (config_.cepstral_mean_norm) cepstral_mean_normalize(cepstra);
  return config_.add_deltas ? add_delta_features(cepstra) : cepstra;
}

Matrix add_delta_features(const Matrix& base) {
  const std::size_t frames = base.rows();
  const std::size_t dim = base.cols();
  RT_REQUIRE(frames > 0 && dim > 0, "empty feature matrix");
  Matrix out(frames, dim * 3);

  // Standard regression deltas with window N=2:
  // d_t = sum_n n (x_{t+n} - x_{t-n}) / (2 sum_n n^2), edges clamped.
  constexpr int kWindow = kDeltaRegressionWindow;
  constexpr float kDenominator = kDeltaRegressionDenominator;
  const auto clamped_row = [&](const Matrix& m, std::ptrdiff_t t) {
    const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(frames) - 1;
    return m.row(static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(t, 0,
                                                                     last)));
  };

  Matrix delta(frames, dim);
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      float acc = 0.0F;
      for (int n = 1; n <= kWindow; ++n) {
        acc += static_cast<float>(n) *
               (clamped_row(base, static_cast<std::ptrdiff_t>(t) + n)[d] -
                clamped_row(base, static_cast<std::ptrdiff_t>(t) - n)[d]);
      }
      delta(t, d) = acc / kDenominator;
    }
  }
  Matrix delta2(frames, dim);
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      float acc = 0.0F;
      for (int n = 1; n <= kWindow; ++n) {
        acc += static_cast<float>(n) *
               (clamped_row(delta, static_cast<std::ptrdiff_t>(t) + n)[d] -
                clamped_row(delta, static_cast<std::ptrdiff_t>(t) - n)[d]);
      }
      delta2(t, d) = acc / kDenominator;
    }
  }

  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      out(t, d) = base(t, d);
      out(t, dim + d) = delta(t, d);
      out(t, 2 * dim + d) = delta2(t, d);
    }
  }
  return out;
}

void cepstral_mean_normalize(Matrix& features) {
  const std::size_t frames = features.rows();
  if (frames == 0) return;
  for (std::size_t d = 0; d < features.cols(); ++d) {
    double mean = 0.0;
    for (std::size_t t = 0; t < frames; ++t) {
      mean += static_cast<double>(features(t, d));
    }
    mean /= static_cast<double>(frames);
    for (std::size_t t = 0; t < frames; ++t) {
      features(t, d) -= static_cast<float>(mean);
    }
  }
}

}  // namespace rtmobile::speech
