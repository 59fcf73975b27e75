// Unit tests for the speech substrate: phone inventory, MFCC front end,
// waveform synthesis, the synthetic corpus, decoding, and PER scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <set>
#include <span>
#include <vector>

#include "speech/corpus.hpp"
#include "speech/decoder.hpp"
#include "speech/mfcc.hpp"
#include "speech/per.hpp"
#include "speech/phones.hpp"
#include "speech/synth.hpp"
#include "sparse/fft.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace rtmobile::speech {
namespace {

// ---------------------------------------------------------------- phones
TEST(Phones, InventorySizes) {
  EXPECT_EQ(surface_phones().size(), kNumSurfacePhones);
  EXPECT_EQ(folded_phone_names().size(), kNumFoldedPhones);
}

TEST(Phones, EveryFoldTargetIsValid) {
  for (const SurfacePhone& phone : surface_phones()) {
    EXPECT_LT(phone.folded, kNumFoldedPhones) << phone.name;
  }
}

TEST(Phones, EveryFoldedClassIsReachable) {
  std::set<std::uint16_t> reached;
  for (const SurfacePhone& phone : surface_phones()) {
    reached.insert(phone.folded);
  }
  EXPECT_EQ(reached.size(), kNumFoldedPhones);
}

TEST(Phones, CanonicalFoldings) {
  // Spot-check the Lee & Hon folding rules.
  const auto folded_of = [](std::string_view name) {
    return surface_phones()[surface_phone_id(name)].folded;
  };
  EXPECT_EQ(folded_of("ix"), folded_phone_id("ih"));
  EXPECT_EQ(folded_of("ax"), folded_phone_id("ah"));
  EXPECT_EQ(folded_of("ao"), folded_phone_id("aa"));
  EXPECT_EQ(folded_of("el"), folded_phone_id("l"));
  EXPECT_EQ(folded_of("zh"), folded_phone_id("sh"));
  EXPECT_EQ(folded_of("pcl"), silence_phone());
  EXPECT_EQ(folded_of("h#"), silence_phone());
  EXPECT_EQ(folded_of("q"), silence_phone());
}

TEST(Phones, LookupThrowsOnUnknown) {
  EXPECT_THROW(static_cast<void>(surface_phone_id("xyzzy")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(folded_phone_id("xyzzy")),
               std::invalid_argument);
}

// ------------------------------------------------------------------ MFCC
TEST(Mfcc, MelScaleRoundTrip) {
  for (const double hz : {100.0, 440.0, 1000.0, 4000.0, 7999.0}) {
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, hz * 1e-9);
  }
  EXPECT_NEAR(hz_to_mel(1000.0), 999.99, 1.0);  // mel(1kHz) ~ 1000
}

TEST(Mfcc, FilterBankPartitionsSpectrum) {
  MfccConfig config;
  const MelFilterBank bank(config);
  EXPECT_EQ(bank.num_filters(), config.num_mel_filters);
  // Adjacent triangles overlap: the pointwise sum over filters should be
  // positive across the passband interior.
  std::vector<float> total(config.fft_size / 2 + 1, 0.0F);
  for (std::size_t f = 0; f < bank.num_filters(); ++f) {
    const auto weights = bank.filter(f);
    for (std::size_t b = 0; b < total.size(); ++b) total[b] += weights[b];
  }
  const double hz_per_bin = config.sample_rate_hz /
                            static_cast<double>(config.fft_size);
  for (std::size_t b = 0; b < total.size(); ++b) {
    const double hz = static_cast<double>(b) * hz_per_bin;
    if (hz > 300.0 && hz < 7000.0) {
      EXPECT_GT(total[b], 0.0F) << "gap in mel coverage at " << hz << " Hz";
    }
  }
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Mfcc, SparseMelBankEqualsDenseSumBitwise) {
  // apply() walks each triangle's run only; it must equal the double sum
  // over every bin of filter(f), in ascending order, bit for bit —
  // including spectra with zero and denormal bins.
  const float denormal = std::numeric_limits<float>::denorm_min();
  for (const std::size_t filters : {26U, 64U}) {
    MfccConfig config;
    config.num_mel_filters = filters;
    const MelFilterBank bank(config);
    const std::size_t bins = config.fft_size / 2 + 1;
    Rng rng(filters);
    std::vector<std::vector<float>> spectra(3, std::vector<float>(bins));
    for (std::size_t b = 0; b < bins; ++b) {
      const float v = rng.normal();
      spectra[0][b] = b % 7 == 0   ? 0.0F
                      : b % 5 == 0 ? denormal * static_cast<float>(b)
                                   : v * v * (b % 3 == 0 ? 1e6F : 1.0F);
      spectra[1][b] = 0.0F;
      spectra[2][b] = denormal * static_cast<float>(1 + b % 4);
    }
    std::vector<float> energies(bank.num_filters());
    for (const std::vector<float>& power : spectra) {
      bank.apply(power, energies);
      for (std::size_t f = 0; f < bank.num_filters(); ++f) {
        const std::vector<float> weights = bank.filter(f);
        double acc = 0.0;
        for (std::size_t b = 0; b < bins; ++b) {
          acc += static_cast<double>(weights[b]) *
                 static_cast<double>(power[b]);
        }
        EXPECT_TRUE(same_bits(energies[f], static_cast<float>(acc)))
            << filters << " filters, filter " << f;
      }
    }
  }
}

/// One frame's cepstra computed the direct way: fft_inplace, dense mel
/// sums over filter(f), and the DCT-II row by row (cepstrum-major).
std::vector<float> reference_cepstra(const MfccConfig& config,
                                     std::span<const float> samples,
                                     float prev_sample) {
  const std::size_t n = config.frame_length;
  std::vector<Complex> spectrum(config.fft_size, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    const float window = static_cast<float>(
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               static_cast<double>(n - 1)));
    const float previous = i > 0 ? samples[i - 1] : prev_sample;
    spectrum[i] = Complex(
        static_cast<double>(
            (samples[i] - static_cast<float>(config.preemphasis) * previous) *
            window),
        0.0);
  }
  fft_inplace(spectrum, /*inverse=*/false);
  const MelFilterBank bank(config);
  const std::size_t m_count = config.num_mel_filters;
  std::vector<float> log_mel(m_count);
  for (std::size_t f = 0; f < m_count; ++f) {
    const std::vector<float> weights = bank.filter(f);
    double acc = 0.0;
    for (std::size_t b = 0; b < weights.size(); ++b) {
      acc += static_cast<double>(weights[b]) *
             static_cast<double>(static_cast<float>(std::norm(spectrum[b])));
    }
    log_mel[f] = std::log(std::max(static_cast<float>(acc), 1e-10F));
  }
  std::vector<float> cepstra(config.num_cepstra);
  for (std::size_t c = 0; c < cepstra.size(); ++c) {
    const double scale = std::sqrt((c == 0 ? 1.0 : 2.0) /
                                   static_cast<double>(m_count));
    double acc = 0.0;
    for (std::size_t m = 0; m < m_count; ++m) {
      const float coefficient = static_cast<float>(
          scale * std::cos(std::numbers::pi * static_cast<double>(c) *
                           (static_cast<double>(m) + 0.5) /
                           static_cast<double>(m_count)));
      acc += static_cast<double>(coefficient) *
             static_cast<double>(log_mel[m]);
    }
    cepstra[c] = static_cast<float>(acc);
  }
  return cepstra;
}

TEST(Mfcc, FrameKernelEqualsRowMajorReferenceBitwise) {
  // extract_frame (FftPlan, sparse mel runs, DCT summed band by band)
  // must equal the direct formulation bit for bit, on loud, quiet and
  // silent frames.
  std::vector<MfccConfig> configs(4);
  configs[1].num_mel_filters = 64;  // the serving benchmark's front end
  configs[1].num_cepstra = 51;
  configs[2].fft_size = 1024;
  configs[2].num_mel_filters = 80;
  configs[2].num_cepstra = 80;
  configs[2].low_freq_hz = 0.0;
  configs[3].frame_length = 32;
  configs[3].frame_shift = 32;
  configs[3].fft_size = 32;
  configs[3].num_mel_filters = 13;
  for (const MfccConfig& config : configs) {
    const MfccExtractor mfcc(config);
    MfccExtractor::FrameScratch scratch(config);
    std::vector<float> cepstra(config.num_cepstra);
    Rng rng(config.num_mel_filters);
    for (const float amplitude : {3e4F, 0.1F, 1e-6F, 0.0F}) {
      std::vector<float> wave(config.frame_length + 1);
      for (float& s : wave) s = amplitude * rng.normal();
      const std::span<const float> samples{wave.data() + 1,
                                           config.frame_length};
      mfcc.extract_frame(samples, wave[0], cepstra, scratch);
      const std::vector<float> want =
          reference_cepstra(config, samples, wave[0]);
      for (std::size_t c = 0; c < want.size(); ++c) {
        EXPECT_TRUE(same_bits(cepstra[c], want[c]))
            << config.num_mel_filters << " filters, amplitude " << amplitude
            << ", cepstrum " << c << ": " << cepstra[c] << " vs " << want[c];
      }
    }
  }
}

TEST(Mfcc, FrameCountFormula) {
  const MfccExtractor mfcc;
  EXPECT_EQ(mfcc.frame_count(399), 0U);
  EXPECT_EQ(mfcc.frame_count(400), 1U);
  EXPECT_EQ(mfcc.frame_count(400 + 160), 2U);
  EXPECT_EQ(mfcc.frame_count(16000), 1U + (16000 - 400) / 160);
}

TEST(Mfcc, ExtractShapesAndFiniteness) {
  MfccExtractor mfcc;
  EXPECT_EQ(mfcc.feature_dim(), 39U);
  Rng rng(1);
  std::vector<float> wave(16000);
  for (auto& s : wave) s = 0.1F * rng.normal();
  const Matrix features = mfcc.extract(wave);
  EXPECT_EQ(features.cols(), 39U);
  EXPECT_EQ(features.rows(), mfcc.frame_count(wave.size()));
  for (const float v : features.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Mfcc, FrameScratchReuseIsBitIdenticalToFreshScratch) {
  // The allocation-free frame path (caller-provided FrameScratch, the
  // one the 10 ms streaming front end runs) must be insensitive to
  // scratch history: state left behind by frame n must not leak into
  // frame n+1.
  const MfccExtractor mfcc;
  const MfccConfig& config = mfcc.config();
  Rng rng(7);
  std::vector<float> wave(config.frame_length + 1);
  for (auto& s : wave) s = 0.1F * rng.normal();
  const std::span<const float> samples{wave.data() + 1,
                                       config.frame_length};

  MfccExtractor::FrameScratch fresh(config);
  std::vector<float> expected(config.num_cepstra);
  mfcc.extract_frame(samples, wave[0], expected, fresh);

  MfccExtractor::FrameScratch scratch(config);
  std::vector<float> reused(config.num_cepstra);
  // Dirty the scratch with a different frame first, then recompute.
  mfcc.extract_frame({wave.data(), config.frame_length}, 0.25F, reused,
                     scratch);
  mfcc.extract_frame(samples, wave[0], reused, scratch);
  EXPECT_EQ(expected, reused);
}

TEST(Mfcc, CmnZeroesColumnMeans) {
  Rng rng(2);
  Matrix features(50, 13);
  fill_normal(features.span(), rng, 1.0F);
  for (std::size_t d = 0; d < 13; ++d) features(0, d) += 5.0F;  // bias
  cepstral_mean_normalize(features);
  for (std::size_t d = 0; d < 13; ++d) {
    double mean = 0.0;
    for (std::size_t t = 0; t < 50; ++t) {
      mean += static_cast<double>(features(t, d));
    }
    EXPECT_NEAR(mean / 50.0, 0.0, 1e-4);
  }
}

TEST(Mfcc, DeltasOfConstantSignalAreZero) {
  Matrix base(10, 3, 2.5F);
  const Matrix with_deltas = add_delta_features(base);
  EXPECT_EQ(with_deltas.cols(), 9U);
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::size_t d = 3; d < 9; ++d) {
      EXPECT_FLOAT_EQ(with_deltas(t, d), 0.0F);
    }
  }
}

TEST(Mfcc, DeltasOfLinearRampAreConstant) {
  Matrix base(12, 1);
  for (std::size_t t = 0; t < 12; ++t) {
    base(t, 0) = static_cast<float>(t);
  }
  const Matrix with_deltas = add_delta_features(base);
  // Interior delta of a unit ramp is 1 (regression estimate of the slope);
  // edge clamping distorts t < 2 and t >= 10.
  for (std::size_t t = 2; t < 10; ++t) {
    EXPECT_NEAR(with_deltas(t, 1), 1.0F, 1e-5F);
  }
  // Delta-delta is zero where its own window sees only interior deltas
  // (t in [4, 8)): the clamped edge deltas leak two frames further in.
  for (std::size_t t = 4; t < 8; ++t) {
    EXPECT_NEAR(with_deltas(t, 2), 0.0F, 1e-5F);
  }
}

TEST(Mfcc, DistinguishesSpectrallyDifferentSignals) {
  // 300 Hz tone vs 3 kHz tone must produce clearly different cepstra.
  MfccConfig config;
  config.add_deltas = false;
  config.cepstral_mean_norm = false;
  const MfccExtractor mfcc(config);
  std::vector<float> low(4000);
  std::vector<float> high(4000);
  for (std::size_t i = 0; i < low.size(); ++i) {
    const double t = static_cast<double>(i) / 16000.0;
    low[i] = static_cast<float>(std::sin(2 * std::numbers::pi * 300.0 * t));
    high[i] = static_cast<float>(std::sin(2 * std::numbers::pi * 3000.0 * t));
  }
  const Matrix f_low = mfcc.extract(low);
  const Matrix f_high = mfcc.extract(high);
  double diff = 0.0;
  for (std::size_t d = 0; d < 13; ++d) {
    diff += std::fabs(static_cast<double>(f_low(5, d)) -
                      static_cast<double>(f_high(5, d)));
  }
  EXPECT_GT(diff, 5.0);
}

// ----------------------------------------------------------------- synth
TEST(Synth, RendersFiniteBoundedAudio) {
  Synthesizer synth;
  Rng rng(3);
  std::vector<float> wave;
  synth.render_phone(surface_phone_id("aa"), 1600, rng, wave);
  EXPECT_EQ(wave.size(), 1600U);
  for (const float s : wave) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_LT(std::fabs(s), 4.0F);
  }
}

TEST(Synth, VowelHasMoreEnergyThanSilence) {
  Synthesizer synth;
  Rng rng(4);
  std::vector<float> vowel;
  std::vector<float> silence;
  synth.render_phone(surface_phone_id("aa"), 1600, rng, vowel);
  synth.render_phone(surface_phone_id("h#"), 1600, rng, silence);
  EXPECT_GT(norm2(std::span<const float>(vowel)),
            10.0 * norm2(std::span<const float>(silence)));
}

TEST(Synth, SequenceLengthAccountsForCrossfade) {
  Synthesizer synth;
  Rng rng(5);
  const std::vector<std::size_t> phones = {surface_phone_id("s"),
                                           surface_phone_id("iy")};
  const std::vector<std::size_t> durations = {800, 800};
  const auto wave = synth.render_sequence(phones, durations, rng);
  // Cross-fade overlaps fade-length samples per boundary.
  const std::size_t fade = static_cast<std::size_t>(
      synth.config().coarticulation_ms / 1000.0 *
      synth.config().sample_rate_hz);
  EXPECT_EQ(wave.size(), 1600U - fade);
}

TEST(Synth, AcousticsTableCoversAllPhones) {
  EXPECT_EQ(phone_acoustics().size(), kNumSurfacePhones);
  // Vowels must have formants; silence must be near-silent.
  const auto& aa = phone_acoustics()[surface_phone_id("aa")];
  EXPECT_GT(aa.f1_hz, 0.0);
  EXPECT_GT(aa.voicing, 0.5);
  const auto& sil = phone_acoustics()[surface_phone_id("h#")];
  EXPECT_EQ(sil.level, 0.0);
}

// ---------------------------------------------------------------- corpus
TEST(Corpus, DeterministicForSeed) {
  CorpusConfig config;
  config.num_train_utterances = 4;
  config.num_test_utterances = 2;
  const Corpus a = SyntheticTimit(config).generate();
  const Corpus b = SyntheticTimit(config).generate();
  ASSERT_EQ(a.train.size(), 4U);
  ASSERT_EQ(a.test.size(), 2U);
  EXPECT_EQ(a.train[0].features, b.train[0].features);
  EXPECT_EQ(a.train[0].labels, b.train[0].labels);
  EXPECT_EQ(a.test[1].phones, b.test[1].phones);
}

TEST(Corpus, DifferentSeedsDiffer) {
  CorpusConfig config_a;
  config_a.num_train_utterances = 2;
  config_a.num_test_utterances = 1;
  CorpusConfig config_b = config_a;
  config_b.seed = config_a.seed + 1;
  const Corpus a = SyntheticTimit(config_a).generate();
  const Corpus b = SyntheticTimit(config_b).generate();
  EXPECT_FALSE(a.train[0].features == b.train[0].features);
}

TEST(Corpus, LabelsAreValidFoldedPhones) {
  CorpusConfig config;
  config.num_train_utterances = 6;
  config.num_test_utterances = 2;
  const Corpus corpus = SyntheticTimit(config).generate();
  for (const auto& utt : corpus.train) {
    EXPECT_EQ(utt.features.rows(), utt.labels.size());
    EXPECT_EQ(utt.features.cols(), corpus.feature_dim);
    for (const std::uint16_t label : utt.labels) {
      EXPECT_LT(label, kNumFoldedPhones);
    }
    // Reference phones are the collapsed frame labels.
    EXPECT_EQ(utt.phones, collapse_sequence(utt.labels));
    // Utterances are bracketed by silence.
    EXPECT_EQ(utt.phones.front(), silence_phone());
    EXPECT_EQ(utt.phones.back(), silence_phone());
  }
}

TEST(Corpus, SurfaceSequencesRespectPhonotactics) {
  const SyntheticTimit generator;
  Rng rng(6);
  const auto& phones = surface_phones();
  for (int trial = 0; trial < 20; ++trial) {
    const auto seq = generator.sample_surface_sequence(rng);
    ASSERT_GE(seq.size(), 4U);
    EXPECT_EQ(phones[seq.front()].name, "h#");
    EXPECT_EQ(phones[seq.back()].name, "h#");
  }
}

TEST(Corpus, WaveformModeProducesMfccFeatures) {
  CorpusConfig config;
  config.mode = FeatureMode::kWaveform;
  config.num_train_utterances = 1;
  config.num_test_utterances = 1;
  config.min_phones = 3;
  config.max_phones = 5;
  const Corpus corpus = SyntheticTimit(config).generate();
  EXPECT_EQ(corpus.feature_dim, 39U);
  const auto& utt = corpus.train[0];
  EXPECT_GT(utt.features.rows(), 10U);
  EXPECT_EQ(utt.features.cols(), 39U);
  EXPECT_EQ(utt.labels.size(), utt.features.rows());
  for (const float v : utt.features.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Corpus, CollapseSequence) {
  EXPECT_EQ(collapse_sequence({1, 1, 2, 2, 2, 1}),
            (std::vector<std::uint16_t>{1, 2, 1}));
  EXPECT_TRUE(collapse_sequence({}).empty());
}

// --------------------------------------------------------------- decoder
TEST(Decoder, FrameArgmax) {
  Matrix logits(2, 3, std::vector<float>{0.1F, 0.9F, 0.0F,
                                         2.0F, -1.0F, 1.0F});
  EXPECT_EQ(frame_argmax(logits), (std::vector<std::uint16_t>{1, 0}));
}

TEST(Decoder, MajoritySmoothingRemovesSpikes) {
  const std::vector<std::uint16_t> noisy = {5, 5, 5, 9, 5, 5, 5};
  EXPECT_EQ(majority_smooth(noisy, 3),
            (std::vector<std::uint16_t>{5, 5, 5, 5, 5, 5, 5}));
  EXPECT_EQ(majority_smooth(noisy, 1), noisy);
  EXPECT_THROW(majority_smooth(noisy, 2), std::invalid_argument);
}

TEST(Decoder, CollapseRunsWithMinimumLength) {
  const std::vector<std::uint16_t> frames = {1, 1, 1, 2, 3, 3, 3, 3};
  EXPECT_EQ(collapse_runs(frames, 1), (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_EQ(collapse_runs(frames, 2), (std::vector<std::uint16_t>{1, 3}));
}

TEST(Decoder, CollapseNeverReturnsEmptyForNonEmptyInput) {
  const std::vector<std::uint16_t> frames = {1, 2, 3};
  EXPECT_EQ(collapse_runs(frames, 5), (std::vector<std::uint16_t>{1, 2, 3}));
}

// ------------------------------------------------------------------- PER
TEST(Per, IdenticalSequencesScoreZero) {
  const std::vector<std::uint16_t> seq = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(phone_error_rate(seq, seq), 0.0);
}

TEST(Per, KnownEditDistances) {
  const std::vector<std::uint16_t> ref = {1, 2, 3};
  const std::vector<std::uint16_t> sub = {1, 9, 3};
  const std::vector<std::uint16_t> del = {1, 3};
  const std::vector<std::uint16_t> ins = {1, 2, 9, 3};
  EXPECT_NEAR(phone_error_rate(ref, sub), 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(phone_error_rate(ref, del), 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(phone_error_rate(ref, ins), 100.0 / 3.0, 1e-9);
}

TEST(Per, AlignSplitsErrorTypes) {
  const std::vector<std::uint16_t> ref = {1, 2, 3, 4};
  const std::vector<std::uint16_t> hyp = {1, 9, 4};  // sub(2->9), del(3)
  const EditStats stats = align(ref, hyp);
  EXPECT_EQ(stats.substitutions + stats.deletions + stats.insertions, 2U);
  EXPECT_EQ(stats.reference_length, 4U);
  EXPECT_NEAR(stats.rate(), 0.5, 1e-9);
}

TEST(Per, EmptySequencesHandled) {
  const std::vector<std::uint16_t> empty;
  const std::vector<std::uint16_t> abc = {1, 2, 3};
  EXPECT_EQ(align(empty, abc).insertions, 3U);
  EXPECT_EQ(align(abc, empty).deletions, 3U);
  EXPECT_DOUBLE_EQ(align(empty, empty).rate(), 0.0);
}

TEST(Per, RateCanExceedOne) {
  const std::vector<std::uint16_t> ref = {1};
  const std::vector<std::uint16_t> hyp = {2, 3, 4};
  EXPECT_GT(align(ref, hyp).rate(), 1.0);
}

// ------------------------------------------------ repeat-heavy traffic

TEST(Zipf, ProbabilitiesMatchTheLaw) {
  const ZipfSampler zipf(8, 1.1);
  // p(r) proportional to 1/(r+1)^s, normalized.
  double total = 0.0;
  for (std::size_t r = 0; r < 8; ++r) total += 1.0 / std::pow(r + 1.0, 1.1);
  double sum = 0.0;
  for (std::size_t r = 0; r < 8; ++r) {
    const double expected = (1.0 / std::pow(r + 1.0, 1.1)) / total;
    EXPECT_NEAR(zipf.probability(r), expected, 1e-12);
    sum += zipf.probability(r);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, ZeroSkewIsUniform) {
  const ZipfSampler zipf(5, 0.0);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(zipf.probability(r), 0.2, 1e-12);
  }
}

TEST(Zipf, EmpiricalFrequenciesTrackTheDistribution) {
  const ZipfSampler zipf(8, 1.1);
  Rng rng(42);
  constexpr std::size_t kDraws = 40000;
  std::vector<std::size_t> counts(zipf.size(), 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    const double freq = static_cast<double>(counts[r]) / kDraws;
    // ~4-sigma binomial tolerance at this sample size.
    EXPECT_NEAR(freq, zipf.probability(r), 0.012)
        << "rank " << r << " drifted";
  }
  // The defining shape: strictly heavier head than tail.
  EXPECT_GT(counts[0], counts[zipf.size() - 1] * 2);
}

TEST(Traffic, SameSeedSameTraffic) {
  RepeatTrafficConfig config;
  config.distinct_utterances = 6;
  config.phones_per_utterance = 3;
  config.samples_per_phone = 400;
  config.seed = 1234;
  UtteranceRepeatGenerator a(config);
  UtteranceRepeatGenerator b(config);
  ASSERT_EQ(a.pool_size(), 6U);
  for (std::size_t r = 0; r < a.pool_size(); ++r) {
    ASSERT_FALSE(a.utterance(r).empty());
    EXPECT_EQ(a.utterance(r), b.utterance(r)) << "pool rank " << r;
  }
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_rank(), b.next_rank()) << "draw " << i;
  }
}

TEST(Traffic, DifferentSeedsDiverge) {
  RepeatTrafficConfig config;
  config.distinct_utterances = 4;
  config.phones_per_utterance = 3;
  config.samples_per_phone = 400;
  config.seed = 1;
  UtteranceRepeatGenerator a(config);
  config.seed = 2;
  UtteranceRepeatGenerator b(config);
  EXPECT_NE(a.utterance(0), b.utterance(0));
  std::size_t differing_draws = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (a.next_rank() != b.next_rank()) ++differing_draws;
  }
  EXPECT_GT(differing_draws, 0U);
}

TEST(Traffic, DrawsStayInPoolAndDrawingNeverMutatesPool) {
  RepeatTrafficConfig config;
  config.distinct_utterances = 5;
  config.phones_per_utterance = 2;
  config.samples_per_phone = 300;
  UtteranceRepeatGenerator gen(config);
  const std::vector<float> hot = gen.utterance(0);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_LT(gen.next_rank(), gen.pool_size());
  }
  EXPECT_EQ(gen.utterance(0), hot);
}

}  // namespace
}  // namespace rtmobile::speech
