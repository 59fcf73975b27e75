// Parametric phone waveform synthesizer.
//
// Generates 16 kHz waveforms for surface-phone sequences so the MFCC front
// end runs on genuinely spectral data. The synthesis is a classic
// source-filter caricature, deterministic per seed:
//   vowels/semivowels: sum of three formant sinusoids on a pitch-modulated
//     harmonic source, formants drawn per phone from a fixed table;
//   nasals: low formant + damped upper structure;
//   fricatives/affricates: band-shaped noise (center/width per phone);
//   stops: closure silence then a short broadband burst;
//   silence/closures: low-amplitude noise floor.
// Adjacent phones are cross-faded to model coarticulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "speech/phones.hpp"
#include "util/rng.hpp"

namespace rtmobile::speech {

struct SynthConfig {
  double sample_rate_hz = 16000.0;
  double pitch_hz = 120.0;          // nominal F0
  double pitch_jitter = 0.08;       // relative F0 wobble
  double noise_floor = 0.01;        // silence amplitude
  double coarticulation_ms = 12.0;  // cross-fade between phones
  double amplitude = 0.35;
};

/// Per-phone spectral recipe used by the synthesizer.
struct PhoneAcoustics {
  double f1_hz = 0.0, f2_hz = 0.0, f3_hz = 0.0;  // formants (voiced phones)
  double noise_center_hz = 0.0;                  // fricative band center
  double noise_width_hz = 0.0;                   // fricative band width
  double voicing = 0.0;                          // [0,1] harmonic fraction
  double level = 1.0;                            // relative amplitude
};

/// The fixed acoustic table for all 61 surface phones (deterministic).
[[nodiscard]] const std::vector<PhoneAcoustics>& phone_acoustics();

class Synthesizer {
 public:
  explicit Synthesizer(const SynthConfig& config = SynthConfig{});

  /// Renders one surface phone for `num_samples` samples into `out`
  /// (appended). `rng` drives pitch jitter and noise.
  void render_phone(std::size_t surface_phone, std::size_t num_samples,
                    Rng& rng, std::vector<float>& out) const;

  /// Renders a phone sequence with per-phone sample durations and
  /// coarticulation cross-fades. Returns the waveform.
  [[nodiscard]] std::vector<float> render_sequence(
      std::span<const std::size_t> surface_phones,
      std::span<const std::size_t> durations_samples, Rng& rng) const;

  [[nodiscard]] const SynthConfig& config() const { return config_; }

 private:
  SynthConfig config_;
};

// --------------------------------------------- repeat-heavy traffic model

/// Zipf(s) sampler over ranks 0..n-1: rank r is drawn with probability
/// proportional to 1/(r+1)^s. Sampling is inverse-CDF over precomputed
/// cumulative weights (O(log n) per draw), deterministic given the Rng.
/// s = 0 is uniform; s around 1 is the classic repeat-heavy web/IVR
/// shape where a handful of utterances dominate the traffic.
class ZipfSampler {
 public:
  /// `n` must be positive; `skew` (s) must be >= 0.
  ZipfSampler(std::size_t n, double skew);

  /// Draws one rank in [0, size()).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// Exact probability of drawing `rank`.
  [[nodiscard]] double probability(std::size_t rank) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double skew() const { return skew_; }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
  double skew_ = 0.0;
};

/// The traffic model perfbench's local_repeat workload replays: a fixed
/// pool of synthesized utterances hit with Zipf-distributed repetition.
struct RepeatTrafficConfig {
  std::size_t distinct_utterances = 16;  // pool size (Zipf support)
  double skew = 1.1;                     // Zipf s; 0 = uniform traffic
  std::size_t phones_per_utterance = 6;
  std::size_t samples_per_phone = 1200;  // 75 ms at 16 kHz
  std::uint64_t seed = 0x5EEDULL;        // drives pool AND draw order
  SynthConfig synth;
};

/// Seeded generator of repeat-heavy traffic: synthesizes a pool of
/// `distinct_utterances` random-phone waveforms up front (each rendered
/// from a seed derived only from `seed` and its rank, so two generators
/// with equal configs own bitwise-identical pools), then deals ranks
/// from a ZipfSampler. Rank 0 is the hottest utterance.
class UtteranceRepeatGenerator {
 public:
  explicit UtteranceRepeatGenerator(const RepeatTrafficConfig& config);

  /// Draws the next traffic item's rank (advances the draw stream).
  [[nodiscard]] std::size_t next_rank();
  /// Convenience: draws a rank and returns its pooled waveform.
  [[nodiscard]] const std::vector<float>& next_wave();

  /// The pooled waveform for a rank (stable across the generator's life).
  [[nodiscard]] const std::vector<float>& utterance(std::size_t rank) const;
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }
  [[nodiscard]] const ZipfSampler& zipf() const { return zipf_; }
  [[nodiscard]] const RepeatTrafficConfig& config() const { return config_; }

 private:
  RepeatTrafficConfig config_;
  ZipfSampler zipf_;
  Rng draw_rng_;
  std::vector<std::vector<float>> pool_;
};

}  // namespace rtmobile::speech
