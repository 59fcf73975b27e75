// MFCC front end: pre-emphasis, Hamming windowing, FFT power spectrum,
// mel filter bank, log compression, DCT-II, and delta features.
//
// Defaults follow the Kaldi TIMIT recipe: 16 kHz audio, 25 ms window,
// 10 ms hop, 512-point FFT, 26 mel filters, 13 cepstra; with Δ and ΔΔ the
// feature dimension is 39 — the same per-frame dimension the paper's GRU
// consumes.
//
// Table ownership: an MfccExtractor builds every table its per-frame
// kernel reads (Hamming window, FftPlan, sparse mel bank, transposed DCT)
// once, in its constructor, and never mutates them, so one extractor is
// safe to share across threads. The serving runtime builds one per
// InferenceEngine and every StreamingMfcc of that engine holds it
// through a shared_ptr; per-stream state is only a FrameScratch and the
// stream's sample and cepstra buffers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/fft.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile::speech {

struct MfccConfig {
  double sample_rate_hz = 16000.0;
  std::size_t frame_length = 400;  // 25 ms at 16 kHz
  std::size_t frame_shift = 160;   // 10 ms at 16 kHz
  std::size_t fft_size = 512;
  std::size_t num_mel_filters = 26;
  std::size_t num_cepstra = 13;
  double preemphasis = 0.97;
  double low_freq_hz = 20.0;
  double high_freq_hz = 8000.0;
  bool add_deltas = true;         // append Δ and ΔΔ (13 -> 39 dims)
  bool cepstral_mean_norm = true; // per-utterance CMN
};

/// Frequency (Hz) -> mel scale.
[[nodiscard]] double hz_to_mel(double hz);
/// Mel scale -> frequency (Hz).
[[nodiscard]] double mel_to_hz(double mel);

/// Precomputed triangular mel filter bank over FFT bins. Each triangle
/// is stored as one run of weights over the bins strictly inside its
/// support; every other bin's weight is zero.
class MelFilterBank {
 public:
  explicit MelFilterBank(const MfccConfig& config);

  [[nodiscard]] std::size_t num_filters() const { return runs_.size(); }

  /// Applies the bank to a power spectrum (fft_size/2+1 bins, each
  /// >= 0), writing num_filters() energies into `energies`. Each energy
  /// is summed in double over the run's bins in ascending order, so it
  /// equals the dense sum over filter(f) bit for bit: the bins skipped
  /// would only add +0. Allocation-free — the per-frame path of the
  /// streaming front end.
  void apply(std::span<const float> power_spectrum,
             std::span<float> energies) const;

  /// Triangle weights of filter `f` over all bins (zero outside support).
  [[nodiscard]] std::vector<float> filter(std::size_t f) const;

 private:
  struct Run {
    std::size_t first_bin;
    std::size_t offset;  // into weights_
    std::size_t count;
  };
  std::size_t num_bins_;
  std::vector<Run> runs_;
  std::vector<float> weights_;
};

/// Computes the MFCC (+Δ, +ΔΔ) matrix of a waveform: one row per frame.
class MfccExtractor {
 public:
  explicit MfccExtractor(const MfccConfig& config = MfccConfig{});

  [[nodiscard]] const MfccConfig& config() const { return config_; }

  /// Feature dimension per frame (13 or 39 depending on add_deltas).
  [[nodiscard]] std::size_t feature_dim() const;

  /// Number of frames the extractor will produce for `num_samples`.
  [[nodiscard]] std::size_t frame_count(std::size_t num_samples) const;

  /// Full pipeline. The waveform must contain at least one frame.
  [[nodiscard]] Matrix extract(std::span<const float> waveform) const;

  /// Every buffer one frame's extraction touches: the windowed frame,
  /// the FFT workspace, the power-spectrum bins, the mel energies and
  /// the DCT accumulators. Per-frame callers (extract(), the streaming
  /// front end) construct one of these once and reuse it, which makes
  /// the 10 ms frame path allocation-free.
  struct FrameScratch {
    explicit FrameScratch(const MfccConfig& config)
        : frame(config.frame_length),
          fft(2 * config.fft_size),
          power(config.fft_size / 2 + 1),
          mel(config.num_mel_filters),
          dct(config.num_cepstra) {}
    std::vector<float> frame;
    std::vector<double> fft;
    std::vector<float> power;
    std::vector<float> mel;
    std::vector<double> dct;
  };

  /// Cepstra of a single frame: `samples` is the frame_length-sample
  /// window and `prev_sample` the sample preceding it (0 at stream
  /// start), which pre-emphasis of the first sample needs. Writes
  /// num_cepstra values into `cepstra` using caller-provided scratch:
  /// no heap allocation at all. extract() and the streaming front end
  /// both call this, so chunked extraction is bit-identical to batch
  /// extraction.
  void extract_frame(std::span<const float> samples, float prev_sample,
                     std::span<float> cepstra, FrameScratch& scratch) const;

 private:
  MfccConfig config_;
  MelFilterBank mel_bank_;
  FftPlan fft_plan_;
  std::vector<float> window_;   // Hamming coefficients
  // Orthonormal DCT-II, transposed: dct_t_[m * num_cepstra + c] is the
  // float coefficient of (cepstrum c, mel band m), widened to double.
  std::vector<double> dct_t_;
};

/// Regression window of the Δ/ΔΔ features and its normalizer
/// 2 * sum(n^2). Shared between add_delta_features and the streaming
/// front end so the two paths cannot drift apart.
inline constexpr int kDeltaRegressionWindow = 2;
inline constexpr float kDeltaRegressionDenominator = 10.0F;

/// Appends Δ and ΔΔ columns (regression window of 2) to a feature matrix.
[[nodiscard]] Matrix add_delta_features(const Matrix& base);

/// Per-utterance cepstral mean normalization (in place, column-wise).
void cepstral_mean_normalize(Matrix& features);

}  // namespace rtmobile::speech
