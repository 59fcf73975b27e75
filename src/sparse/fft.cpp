#include "sparse/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace rtmobile {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  RT_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Danielson-Lanczos butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex w_len(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= w_len;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& value : data) value *= inv_n;
  }
}

std::vector<Complex> fft_real(std::span<const float> signal,
                              std::size_t fft_size) {
  RT_REQUIRE(is_power_of_two(fft_size), "FFT size must be a power of two");
  RT_REQUIRE(signal.size() <= fft_size, "signal longer than FFT size");
  std::vector<Complex> data(fft_size, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < signal.size(); ++i) {
    data[i] = Complex(static_cast<double>(signal[i]), 0.0);
  }
  fft_inplace(data, /*inverse=*/false);
  return data;
}

std::vector<Complex> dft_naive(std::span<const Complex> data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

void circular_convolve(std::span<const float> a, std::span<const float> b,
                       std::span<float> out) {
  const std::size_t n = a.size();
  RT_REQUIRE(b.size() == n && out.size() == n,
             "circular_convolve: length mismatch");
  RT_REQUIRE(is_power_of_two(n), "circular_convolve: length must be 2^k");
  std::vector<Complex> fa(n);
  std::vector<Complex> fb(n);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = Complex(static_cast<double>(a[i]), 0.0);
    fb[i] = Complex(static_cast<double>(b[i]), 0.0);
  }
  fft_inplace(fa, false);
  fft_inplace(fb, false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  fft_inplace(fa, true);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(fa[i].real());
  }
}

void circular_convolve_naive(std::span<const float> a,
                             std::span<const float> b, std::span<float> out) {
  const std::size_t n = a.size();
  RT_REQUIRE(b.size() == n && out.size() == n,
             "circular_convolve_naive: length mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[j]) *
             static_cast<double>(b[(i + n - j) % n]);
    }
    out[i] = static_cast<float>(acc);
  }
}

FftPlan::FftPlan(std::size_t fft_size) {
  RT_REQUIRE(is_power_of_two(fft_size), "FFT size must be a power of two");
  bit_reverse_.resize(fft_size);
  twiddle_re_.resize(fft_size - 1);
  twiddle_im_.resize(fft_size - 1);
  // fft_inplace's swap loop, recorded as a permutation.
  for (std::size_t i = 0; i < fft_size; ++i) {
    bit_reverse_[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 1, j = 0; i < fft_size; ++i) {
    std::size_t bit = fft_size >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(bit_reverse_[i], bit_reverse_[j]);
  }
  for (std::size_t len = 2; len <= fft_size; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex w_len(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddle_re_[len / 2 - 1 + k] = w.real();
      twiddle_im_[len / 2 - 1 + k] = w.imag();
      w *= w_len;
    }
  }
}

void power_spectrum(std::span<const float> frame, const FftPlan& plan,
                    std::span<float> power, std::span<double> scratch) {
  const std::size_t n = plan.size();
  RT_REQUIRE(frame.size() <= n, "signal longer than FFT size");
  RT_REQUIRE(power.size() == n / 2 + 1,
             "power_spectrum: output must hold fft_size/2+1 bins");
  RT_REQUIRE(scratch.size() == 2 * n,
             "power_spectrum: scratch must hold 2 * fft_size doubles");
  double* re = scratch.data();
  double* im = scratch.data() + n;
  // Load the zero-padded frame already permuted: slot i holds input
  // bit_reverse_[i], where fft_inplace's swaps would have moved it.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t src = plan.bit_reverse_[i];
    re[i] = src < frame.size() ? static_cast<double>(frame[src]) : 0.0;
    im[i] = 0.0;
  }
  // fft_inplace's butterflies, with v = x * w spelled out as the
  // (ac - bd, ad + bc) that std::complex multiplication computes.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* w_re = plan.twiddle_re_.data() + half - 1;
    const double* w_im = plan.twiddle_im_.data() + half - 1;
    for (std::size_t i = 0; i < n; i += len) {
      double* u_re = re + i;
      double* u_im = im + i;
      double* x_re = re + i + half;
      double* x_im = im + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double v_re = x_re[k] * w_re[k] - x_im[k] * w_im[k];
        const double v_im = x_re[k] * w_im[k] + x_im[k] * w_re[k];
        x_re[k] = u_re[k] - v_re;
        x_im[k] = u_im[k] - v_im;
        u_re[k] = u_re[k] + v_re;
        u_im[k] = u_im[k] + v_im;
      }
    }
  }
  for (std::size_t i = 0; i < power.size(); ++i) {
    power[i] = static_cast<float>(re[i] * re[i] + im[i] * im[i]);
  }
}

}  // namespace rtmobile
