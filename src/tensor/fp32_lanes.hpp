// AVX2 lanes for the fp32 matvec kernels (BspcMatrix's LRE kernels and
// the dense gemv) that keep every output's scalar summation order.
//
// Each output is one dot product accumulated as
//   acc = 0; acc = acc + w[k] * x[k] for k ascending
// with a separate multiply and add. A SIMD kernel reproduces that order
// exactly, and so stays bit-identical to the scalar loop, as long as each
// lane holds one whole output: the eight lanes run eight such sums side
// by side and are never combined with each other. rows_dot8 puts eight
// rows of a row-major tile in the lanes: 8x8 sub-tiles are loaded as
// half-rows and transposed in registers, so column register k holds
// w[0..7][k], and each k costs one broadcast of x[k], one multiply and
// one add per input vector.
//
// CMake compiles the translation units that include this header with
// -mavx2 -ffp-contract=off when the configuring host supports AVX2
// (RTMOBILE_SIMD_QUANT): bspc.cpp and gemm.cpp directly, and the int8
// kernels' bspc_quant.cpp and packed_dense.cpp through quant_dot.hpp,
// whose int8 epilogue transposes its int32 tiles with transpose8_halves
// (those two add -mfma -mf16c and maybe -mavxvnni, which no code here
// uses). -ffp-contract=off keeps a multiply and add
// from fusing into an FMA, which would round once instead of twice,
// even under global flags that enable FMA (e.g. -march=native).
// Without AVX2 the header is empty and its includers run their scalar
// loops. Do not include it from other translation units: the ISA split
// is per-TU and would otherwise violate the one-definition rule.
#pragma once

#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace rtmobile::fp32_lanes {

/// Transposes an 8x8 tile loaded as half-rows: h[i] holds columns 0..3
/// of rows i and i + 4 (low, high lane), h[i + 4] columns 4..7 of the
/// same rows. Afterwards h[j] holds column j of rows 0..7.
inline void transpose8_halves(__m256 (&h)[8]) {
  for (std::size_t q = 0; q < 8; q += 4) {
    const __m256 t0 = _mm256_unpacklo_ps(h[q + 0], h[q + 1]);
    const __m256 t1 = _mm256_unpackhi_ps(h[q + 0], h[q + 1]);
    const __m256 t2 = _mm256_unpacklo_ps(h[q + 2], h[q + 3]);
    const __m256 t3 = _mm256_unpackhi_ps(h[q + 2], h[q + 3]);
    h[q + 0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    h[q + 1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    h[q + 2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    h[q + 3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  }
}

/// acc[s] lane i = sum_k tile[i * ld + k] * x[s * x_stride + k] over k
/// in [0, n), in the scalar order, for rows i < n_rows (1..8) and S
/// input vectors. Each transposed sub-tile is shared by all S vectors,
/// which also gives S independent add chains. Lanes past n_rows repeat
/// the last row and are not meaningful.
template <std::size_t S>
inline void rows_dot8(const float* tile, std::size_t ld, std::size_t n_rows,
                      const float* x, std::size_t x_stride, std::size_t n,
                      __m256 (&acc)[S]) {
  const float* row[8];
  for (std::size_t i = 0; i < 8; ++i) {
    row[i] = tile + std::min(i, n_rows - 1) * ld;
  }
  for (std::size_t s = 0; s < S; ++s) acc[s] = _mm256_setzero_ps();
  const auto madd_columns = [&](const __m256 (&col)[8], std::size_t k,
                                std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      for (std::size_t s = 0; s < S; ++s) {
        const __m256 xk = _mm256_broadcast_ss(x + s * x_stride + k + j);
        acc[s] = _mm256_add_ps(acc[s], _mm256_mul_ps(col[j], xk));
      }
    }
  };
  __m256 col[8];
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (std::size_t i = 0; i < 4; ++i) {
      col[i] = _mm256_set_m128(_mm_loadu_ps(row[i + 4] + k),
                               _mm_loadu_ps(row[i] + k));
      col[i + 4] = _mm256_set_m128(_mm_loadu_ps(row[i + 4] + k + 4),
                                   _mm_loadu_ps(row[i] + k + 4));
    }
    transpose8_halves(col);
    madd_columns(col, k, 8);
  }
  if (k < n) {
    // Masked loads read only the rows' last n - k values; columns 4..7
    // are loaded only when the tail reaches them, so no pointer runs
    // past a row's end.
    const std::size_t tail = n - k;
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m128i lo = _mm256_castsi256_si128(mask);
    const __m128i hi = _mm256_extracti128_si256(mask, 1);
    for (std::size_t i = 0; i < 4; ++i) {
      col[i] = _mm256_set_m128(_mm_maskload_ps(row[i + 4] + k, lo),
                               _mm_maskload_ps(row[i] + k, lo));
      col[i + 4] = _mm256_setzero_ps();
      if (tail > 4) {
        col[i + 4] = _mm256_set_m128(_mm_maskload_ps(row[i + 4] + k + 4, hi),
                                     _mm_maskload_ps(row[i] + k + 4, hi));
      }
    }
    transpose8_halves(col);
    madd_columns(col, k, tail);
  }
}

}  // namespace rtmobile::fp32_lanes

#endif  // __AVX2__
