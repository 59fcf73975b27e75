// Unit tests for the FFT substrate: agreement with the naive DFT,
// inverse round trips, circular convolution, power spectra.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "sparse/fft.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> data(n);
  for (auto& c : data) {
    c = Complex(rng.normal(), rng.normal());
  }
  return data;
}

double max_error(const std::vector<Complex>& a,
                 const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(next_power_of_two(1), 1U);
  EXPECT_EQ(next_power_of_two(5), 8U);
  EXPECT_EQ(next_power_of_two(64), 64U);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(6);
  EXPECT_THROW(fft_inplace(data, false), std::invalid_argument);
  EXPECT_THROW(FftPlan{0}, std::invalid_argument);
  EXPECT_THROW(FftPlan{384}, std::invalid_argument);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto data = random_signal(n, 100 + n);
  const auto expected = dft_naive(data, false);
  fft_inplace(data, false);
  EXPECT_LT(max_error(data, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 200 + n);
  auto data = original;
  fft_inplace(data, false);
  fft_inplace(data, true);
  EXPECT_LT(max_error(data, original), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, SinglePureToneLandsInOneBin) {
  constexpr std::size_t kN = 256;
  std::vector<float> signal(kN);
  constexpr std::size_t kBin = 17;
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = static_cast<float>(
        std::cos(2.0 * std::numbers::pi * kBin * i / kN));
  }
  const auto spectrum = fft_real(signal, kN);
  // Energy concentrated at +/- kBin.
  EXPECT_NEAR(std::abs(spectrum[kBin]), kN / 2.0, 1e-6 * kN);
  for (std::size_t k = 0; k < kN / 2; ++k) {
    if (k == kBin) continue;
    EXPECT_LT(std::abs(spectrum[k]), 1e-6 * kN);
  }
}

TEST(Fft, CircularConvolutionMatchesNaive) {
  constexpr std::size_t kN = 64;
  Rng rng(7);
  std::vector<float> a(kN);
  std::vector<float> b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  std::vector<float> fast(kN);
  std::vector<float> slow(kN);
  circular_convolve(a, b, fast);
  circular_convolve_naive(a, b, slow);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-3F);
  }
}

TEST(Fft, ConvolutionWithDeltaIsIdentity) {
  constexpr std::size_t kN = 32;
  Rng rng(8);
  std::vector<float> a(kN);
  for (auto& v : a) v = rng.normal();
  std::vector<float> delta(kN, 0.0F);
  delta[0] = 1.0F;
  std::vector<float> out(kN);
  circular_convolve(a, delta, out);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(out[i], a[i], 1e-5F);
  }
}

TEST(Fft, ConvolutionWithShiftedDeltaRotates) {
  constexpr std::size_t kN = 16;
  std::vector<float> a(kN);
  for (std::size_t i = 0; i < kN; ++i) a[i] = static_cast<float>(i);
  std::vector<float> delta(kN, 0.0F);
  delta[3] = 1.0F;  // circular shift by 3
  std::vector<float> out(kN);
  // out[i] = sum_j a[j] delta[(i-j) mod n] = a[(i-3) mod n]
  circular_convolve(a, delta, out);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(out[i], a[(i + kN - 3) % kN], 1e-5F);
  }
}

TEST(Fft, PowerSpectrumParseval) {
  constexpr std::size_t kN = 128;
  Rng rng(9);
  std::vector<float> signal(kN);
  double time_energy = 0.0;
  for (auto& v : signal) {
    v = rng.normal();
    time_energy += static_cast<double>(v) * static_cast<double>(v);
  }
  std::vector<float> power(kN / 2 + 1);
  std::vector<double> fft_scratch(2 * kN);
  power_spectrum(signal, FftPlan(kN), power, fft_scratch);
  // Parseval: sum |X_k|^2 = N * sum x_n^2; reconstruct the full-spectrum
  // sum from the half spectrum (bins 1..N/2-1 appear twice).
  double freq_energy = static_cast<double>(power.front()) +
                       static_cast<double>(power.back());
  for (std::size_t k = 1; k + 1 < power.size(); ++k) {
    freq_energy += 2.0 * static_cast<double>(power[k]);
  }
  EXPECT_NEAR(freq_energy / kN, time_energy, time_energy * 1e-5);
}

TEST(Fft, PowerSpectrumIsNormOfFftInplaceBitwise) {
  // The plan's tables and butterflies must reproduce fft_inplace's
  // arithmetic exactly: every bin is float(std::norm(X[k])) bit for bit,
  // at every size, for frames shorter than the transform (zero padding),
  // with one scratch reused dirty across calls.
  Rng rng(23);
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    const FftPlan plan(n);
    ASSERT_EQ(plan.size(), n);
    std::vector<double> scratch(2 * n, 123.0);
    std::vector<float> power(n / 2 + 1);
    for (const std::size_t len : {n, n - 1, n / 2 + 1, std::size_t{1},
                                  std::size_t{0}}) {
      std::vector<float> frame(len);
      const float scale = len % 2 == 0 ? 1e3F : 1e-3F;
      for (float& v : frame) v = scale * rng.normal();
      if (len > 2) frame[len / 2] = 0.0F;
      power_spectrum(frame, plan, power, scratch);

      std::vector<Complex> data(n, Complex(0.0, 0.0));
      for (std::size_t i = 0; i < len; ++i) {
        data[i] = Complex(static_cast<double>(frame[i]), 0.0);
      }
      fft_inplace(data, /*inverse=*/false);
      for (std::size_t k = 0; k < power.size(); ++k) {
        const float want = static_cast<float>(std::norm(data[k]));
        ASSERT_EQ(std::memcmp(&power[k], &want, sizeof want), 0)
            << "n=" << n << " len=" << len << " bin " << k << ": "
            << power[k] << " vs " << want;
      }
    }
  }
}

TEST(Fft, RealFftRejectsOversizedSignal) {
  std::vector<float> signal(100);
  EXPECT_THROW(fft_real(signal, 64), std::invalid_argument);
}

}  // namespace
}  // namespace rtmobile
