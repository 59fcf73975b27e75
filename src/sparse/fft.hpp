// Radix-2 complex FFT.
//
// Two consumers:
//   - the C-LSTM / E-RNN block-circulant baselines (and
//     circular_convolve), which multiply circulant blocks in the
//     frequency domain through fft_inplace;
//   - the speech front end (speech::MfccExtractor), whose per-frame
//     power_spectrum runs on an FftPlan the extractor builds once.
// power_spectrum writes the same bits as float(std::norm(z)) over
// fft_inplace's output: the plan's twiddles come from fft_inplace's own
// recurrence and its butterflies do the same real arithmetic. A naive
// O(n^2) DFT is provided as the test oracle.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace rtmobile {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// In-place iterative radix-2 FFT. Size must be a power of two.
/// `inverse` selects the inverse transform (with 1/n normalization).
void fft_inplace(std::span<Complex> data, bool inverse);

/// Forward FFT of a real signal, zero-padded to `fft_size` (power of two).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const float> signal,
                                            std::size_t fft_size);

/// Naive O(n^2) DFT used as the correctness oracle in tests.
[[nodiscard]] std::vector<Complex> dft_naive(std::span<const Complex> data,
                                             bool inverse);

/// Circular convolution of two equal-length real vectors via FFT.
/// out[i] = sum_j a[j] * b[(i - j) mod n]. Length must be a power of two.
void circular_convolve(std::span<const float> a, std::span<const float> b,
                       std::span<float> out);

/// Reference O(n^2) circular convolution for tests (any length).
void circular_convolve_naive(std::span<const float> a,
                             std::span<const float> b, std::span<float> out);

/// Tables of one forward FFT size for power_spectrum: the bit-reversal
/// permutation and every stage's twiddles, generated with fft_inplace's
/// `w *= w_len` recurrence (the same values fft_inplace recomputes in
/// each butterfly group). Immutable once built, so one plan may serve
/// any number of threads.
class FftPlan {
 public:
  /// `fft_size` must be a power of two.
  explicit FftPlan(std::size_t fft_size);

  [[nodiscard]] std::size_t size() const { return bit_reverse_.size(); }

 private:
  friend void power_spectrum(std::span<const float>, const FftPlan&,
                             std::span<float>, std::span<double>);

  std::vector<std::uint32_t> bit_reverse_;
  // Stage `len`'s len/2 twiddles start at index len/2 - 1.
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
};

/// Power spectrum |FFT(x)|^2 of a real frame zero-padded to plan.size(),
/// allocation-free: writes plan.size()/2+1 bins into `power`, bitwise
/// equal to float(std::norm(X[k])) with X from fft_inplace. `scratch`
/// (2 * plan.size() doubles: real parts, then imaginary parts) is the
/// transform workspace. The 10 ms streaming front end calls this once
/// per frame, so per-frame heap traffic would land directly on the
/// serving hot path.
void power_spectrum(std::span<const float> frame, const FftPlan& plan,
                    std::span<float> power, std::span<double> scratch);

}  // namespace rtmobile
