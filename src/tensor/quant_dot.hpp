// Inner dot products for the packed quantized int8 kernels.
//
// The fp32 and fp16 kernels must preserve a strict left-to-right
// accumulation order (their outputs are tested bit-identical to the
// storage simulation), which blocks SIMD: the compiler may not
// reassociate float adds. The int8 path only promises to stay within
// the grid's rounding slack, so it commits to a fixed 8-lane summation
// tree instead — lane j accumulates elements k+j — which maps exactly
// onto one AVX2 register (sign-extend 8 codes, convert, FMA). Every
// int8 caller (spmv LRE and no-LRE, spmm, dense gemv) goes through
// these helpers, so all of them share one summation tree and remain
// bit-identical to each other within a build.
//
// The fused int8-activation matmat (interleave_q8_panel +
// matmat_q8_block, then dequantize_q8_span) runs both int8 weight
// formats: every BSPC stripe, and a dense matrix as one stripe of one
// block. It accumulates code by code in int32, which is exact, so its
// three builds return identical sums and differ only in panel layout and
// instruction:
//   - AVX-VNNI: kQ8PanelCols = 4 columns per 32-bit lane as unsigned
//     bytes code + 128, one vpdpbusd (u8 x s8, 32 MACs) per 8 streams;
//     the caller cancels the +128 with a pack-time per-row correction
//     of kQ8PanelOffset * sum(row codes).
//   - AVX2: 2 columns per lane as int16 codes, vpmaddwd + vpaddd.
//   - scalar: the AVX2 layout, plain loops.
// dequantize_q8_span then writes each (row, stream) sum as
// (float(sum) * row_scale) * stream_scale. On AVX2 builds it transposes
// 8-row x 8-stream tiles of sums in registers, so each stream's 8
// consecutive outputs cost one convert, two multiplies and one add: the
// scalar loop's roundings, in its order, so every build writes the same
// bits.
//
// CMake compiles the two TUs including this header (bspc_quant.cpp and
// packed_dense.cpp) with identical flags: -mavx2 -mfma -mf16c, plus
// -mavxvnni when the configuring host runs it (each only when the host
// supports it), and -ffp-contract=off, so neither the fp16 loops nor the
// dequantization can be FMA-contracted away from the simulation's
// arithmetic. Identical flags also give both TUs the same kQ8PanelCols
// and matmat_q8_block. Do not include this header from other
// translation units: the ISA split is per-TU and would otherwise violate
// the one-definition rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/precision.hpp"

#if (defined(__AVX2__) && defined(__FMA__)) || defined(__F16C__)
#include <immintrin.h>
#endif

#include "tensor/fp32_lanes.hpp"

namespace rtmobile {

// ---- fp16 dot products (strict left-to-right accumulation) ----
//
// Bit-identity with the storage simulation requires the exact
// accumulation order of BspcMatrix::spmv / gemv, so only the fp16 ->
// fp32 *conversion* is vectorized (F16C converts 8 halves per
// instruction into a staging buffer); the multiply-adds stay sequential.

/// sum_k fp16(v[k]) * x[k], accumulated left to right.
inline float dot_f16_f32(const std::uint16_t* v, const float* x,
                         std::size_t n) {
  float acc = 0.0F;
  std::size_t k = 0;
#if defined(__F16C__)
  alignas(32) float buf[8];
  for (; k + 8 <= n; k += 8) {
    _mm256_store_ps(buf, _mm256_cvtph_ps(_mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(v + k))));
    for (std::size_t j = 0; j < 8; ++j) acc += buf[j] * x[k + j];
  }
#endif
  for (; k < n; ++k) acc += fp16_bits_to_float(v[k]) * x[k];
  return acc;
}

/// sum_k fp16(v[k]) * x[idx[k]], accumulated left to right.
inline float dot_f16_f32_indexed(const std::uint16_t* v, const float* x,
                                 const std::uint32_t* idx, std::size_t n) {
  float acc = 0.0F;
  std::size_t k = 0;
#if defined(__F16C__)
  alignas(32) float buf[8];
  for (; k + 8 <= n; k += 8) {
    _mm256_store_ps(buf, _mm256_cvtph_ps(_mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(v + k))));
    for (std::size_t j = 0; j < 8; ++j) acc += buf[j] * x[idx[k + j]];
  }
#endif
  for (; k < n; ++k) acc += fp16_bits_to_float(v[k]) * x[idx[k]];
  return acc;
}

// ---- int8 dot products (fixed 8-lane summation tree) ----

#if defined(__AVX2__) && defined(__FMA__)

namespace quant_detail {

/// Horizontal sum with the fixed pairwise tree the scalar fallback uses.
inline float reduce_lanes(__m256 acc) {
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace quant_detail

/// sum_k q[k] * x[k] in fp32 (8-lane tree).
inline float dot_q8_f32(const std::int8_t* q, const float* x,
                        std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + k));
    const __m256 vq = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(vq, _mm256_loadu_ps(x + k), acc);
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * x[k];
  return quant_detail::reduce_lanes(acc) + tail;
}

/// sum_k q[k] * x[idx[k]] in fp32 — same tree as the contiguous form
/// (the gather buffer only reorders loads, not the arithmetic).
inline float dot_q8_f32_indexed(const std::int8_t* q, const float* x,
                                const std::uint32_t* idx, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t k = 0;
  alignas(32) float gathered[8];
  for (; k + 8 <= n; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) gathered[j] = x[idx[k + j]];
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + k));
    const __m256 vq = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(vq, _mm256_load_ps(gathered), acc);
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * x[idx[k]];
  return quant_detail::reduce_lanes(acc) + tail;
}

#if defined(__AVXVNNI__)

/// Activation columns per 32-bit panel lane, and the bias the panel adds
/// to every activation code (see matmat_q8_block).
inline constexpr std::size_t kQ8PanelCols = 4;
inline constexpr std::int32_t kQ8PanelOffset = 128;

/// Builds one column quad's panel lane group from the transposed
/// activation panel: byte j of 32-bit lane b is cols[j][b] + 128 (the
/// sign bit flipped, so codes -127..127 become unsigned 1..255). Columns
/// j >= n (the block's tail) are filled with the code 0 byte; their
/// weights are zero, so any byte there contributes nothing. `bp` is a
/// multiple of 8, so the quad interleaves as straight 16- or 8-stream
/// loads and two rounds of unpacks.
inline void interleave_q8_panel(const std::int8_t* const* cols,
                                std::size_t n, std::size_t bp,
                                std::int32_t* lane) {
  const __m128i flip = _mm_set1_epi8(static_cast<char>(0x80));
  __m128i c[4] = {flip, flip, flip, flip};
  std::size_t b = 0;
  for (; b + 16 <= bp; b += 16) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto* src = reinterpret_cast<const __m128i*>(cols[j] + b);
      c[j] = _mm_xor_si128(_mm_loadu_si128(src), flip);
    }
    const __m128i c01_lo = _mm_unpacklo_epi8(c[0], c[1]);
    const __m128i c01_hi = _mm_unpackhi_epi8(c[0], c[1]);
    const __m128i c23_lo = _mm_unpacklo_epi8(c[2], c[3]);
    const __m128i c23_hi = _mm_unpackhi_epi8(c[2], c[3]);
    auto* out = reinterpret_cast<__m128i*>(lane + b);
    _mm_storeu_si128(out, _mm_unpacklo_epi16(c01_lo, c23_lo));
    _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(c01_lo, c23_lo));
    _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(c01_hi, c23_hi));
    _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(c01_hi, c23_hi));
  }
  if (b < bp) {  // 8-stream tail: one 64-bit load per column
    for (std::size_t j = 0; j < n; ++j) {
      const auto* src = reinterpret_cast<const __m128i*>(cols[j] + b);
      c[j] = _mm_xor_si128(_mm_loadl_epi64(src), flip);
    }
    const __m128i c01 = _mm_unpacklo_epi8(c[0], c[1]);
    const __m128i c23 = _mm_unpacklo_epi8(c[2], c[3]);
    auto* out = reinterpret_cast<__m128i*>(lane + b);
    _mm_storeu_si128(out, _mm_unpacklo_epi16(c01, c23));
    _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(c01, c23));
  }
}

namespace quant_detail {

/// a[v] += the u8 x s8 quad products of `quad` (four weight codes) and
/// lane group `lane`'s streams [8v, 8v + 8), for v < kVecs.
template <std::size_t kVecs>
inline void dpbusd_quad(__m256i (&a)[kVecs], std::int32_t quad,
                        const std::int32_t* lane) {
  const __m256i wq = _mm256_set1_epi32(quad);
  const auto* codes = reinterpret_cast<const __m256i*>(lane);
  for (std::size_t v = 0; v < kVecs; ++v) {
    a[v] = _mm256_dpbusd_avx_epi32(a[v], _mm256_loadu_si256(codes + v), wq);
  }
}

/// matmat_q8_block over one group of kVecs * 8 streams: each row's
/// accumulators stay in registers across the whole block, and every
/// weight quad is one broadcast plus kVecs vpdpbusd.
template <std::size_t kVecs>
inline void dpbusd_q8_rows(const std::int8_t* w, std::size_t col_count,
                           std::size_t n_rows, const std::int32_t* panel,
                           std::size_t bp, std::int32_t* acc) {
  const std::size_t quads = col_count / 4;
  const std::size_t tail = col_count % 4;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::int8_t* wr = w + i * col_count;
    auto* arow = reinterpret_cast<__m256i*>(acc + i * bp);
    __m256i a[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      a[v] = _mm256_loadu_si256(arow + v);
    }
    for (std::size_t q = 0; q < quads; ++q) {
      std::int32_t quad;
      std::memcpy(&quad, wr + 4 * q, 4);
      dpbusd_quad(a, quad, panel + q * bp);
    }
    if (tail != 0) {  // zero weights past the row's end
      std::int32_t quad = 0;
      std::memcpy(&quad, wr + 4 * quads, tail);
      dpbusd_quad(a, quad, panel + quads * bp);
    }
    for (std::size_t v = 0; v < kVecs; ++v) {
      _mm256_storeu_si256(arow + v, a[v]);
    }
  }
}

}  // namespace quant_detail

/// acc[i][b] += sum_k w[i][k] * (a[k][b] + kQ8PanelOffset) for every
/// active row i of a block and bp streams (bp a multiple of 8) — the
/// fused batched-matmat microkernel. `panel` holds ceil(col_count / 4)
/// lane groups from interleave_q8_panel. The non-saturating vpdpbusd
/// keeps every sum exact: |4 products| <= 4 * 255 * 127, and a whole row
/// stays below 1024 * 255 * 127 < 2^31. Subtracting the row's
/// kQ8PanelOffset * sum_k w[i][k] recovers the exact code-by-code sum
/// sum_k w[i][k] * a[k][b].
inline void matmat_q8_block(const std::int8_t* w, std::size_t col_count,
                            std::size_t n_rows, const std::int32_t* panel,
                            std::size_t bp, std::int32_t* acc) {
  // Stream groups of up to 32 keep a row's accumulators in 4 registers.
  for (std::size_t b = 0; b < bp; b += 32) {
    const std::int32_t* p = panel + b;
    std::int32_t* a = acc + b;
    const std::size_t vecs = bp - b >= 32 ? 4 : (bp - b) / 8;
    if (vecs == 4) {
      quant_detail::dpbusd_q8_rows<4>(w, col_count, n_rows, p, bp, a);
    } else if (vecs == 3) {
      quant_detail::dpbusd_q8_rows<3>(w, col_count, n_rows, p, bp, a);
    } else if (vecs == 2) {
      quant_detail::dpbusd_q8_rows<2>(w, col_count, n_rows, p, bp, a);
    } else {
      quant_detail::dpbusd_q8_rows<1>(w, col_count, n_rows, p, bp, a);
    }
  }
}

#else  // AVX2 without VNNI: int16 pairs, vpmaddwd + vpaddd

inline constexpr std::size_t kQ8PanelCols = 2;
inline constexpr std::int32_t kQ8PanelOffset = 0;

/// acc[b] += sum_k w[k] * a[k][b] for bp streams at once (bp a multiple
/// of 8) — the fused batched-matmat microkernel. `panel` holds the
/// block's activation codes interleaved stream-major: for column pair p,
/// 32-bit lane b is the int16 pair (a[2p][b], a[2p+1][b]), with odd-tail
/// columns and batch-pad lanes zeroed by the gather. Each weight pair is
/// broadcast once and madd'ed across all streams, so there is no
/// per-stream horizontal reduction at all; int32 accumulation keeps the
/// exact code-by-code sum per stream.
inline void madd_q8_pairs(const std::int8_t* w, std::size_t n,
                          const std::int16_t* panel, std::size_t bp,
                          std::int32_t* acc) {
  const std::size_t pairs = (n + 1) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int32_t w0 = w[2 * p];
    const std::int32_t w1 = 2 * p + 1 < n ? w[2 * p + 1] : 0;
    const std::int32_t pair_bits =
        (w0 & 0xFFFF) | (static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(w1) << 16));
    const __m256i wpair = _mm256_set1_epi32(pair_bits);
    const std::int16_t* lane = panel + p * 2 * bp;
    for (std::size_t b = 0; b < bp; b += 8) {
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane + 2 * b));
      __m256i* accv = reinterpret_cast<__m256i*>(acc + b);
      _mm256_storeu_si256(
          accv, _mm256_add_epi32(_mm256_loadu_si256(accv),
                                 _mm256_madd_epi16(wpair, codes)));
    }
  }
}

/// Whole-block form of madd_q8_pairs:
/// acc[i][b] += sum_k w[i][k] * a[k][b] for every active row i at once.
/// Weight rows are expanded four pairs at a time — one sign-extending
/// 8-byte load plus lane broadcasts — instead of per-pair scalar bit
/// packing, which is where the pair kernel spends most of its
/// instructions on the wide blocks BSPC actually produces. Identical
/// int32 sums to madd_q8_pairs row by row (integer associativity).
/// `lanes` is the pair panel from interleave_q8_panel.
inline void matmat_q8_block(const std::int8_t* w, std::size_t col_count,
                            std::size_t n_rows, const std::int32_t* lanes,
                            std::size_t bp, std::int32_t* acc) {
  const auto* panel = reinterpret_cast<const std::int16_t*>(lanes);
  const std::size_t pairs = (col_count + 1) / 2;
  // Pair groups whose 8 weight bytes are all in bounds.
  const std::size_t groups = col_count / 8;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::int8_t* wr = w + i * col_count;
    std::int32_t* arow = acc + i * bp;
    for (std::size_t g = 0; g < groups; ++g) {
      const __m128i w16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(wr + 8 * g)));
      const __m256i wp0 = _mm256_broadcastd_epi32(w16);
      const __m256i wp1 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0x55));
      const __m256i wp2 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0xAA));
      const __m256i wp3 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0xFF));
      const std::int16_t* lane = panel + g * 8 * bp;
      for (std::size_t b = 0; b < bp; b += 8) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i*>(arow + b));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 2 * bp + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp2, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 4 * bp + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp3, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 6 * bp + 2 * b))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow + b), a);
      }
    }
    if (groups * 4 < pairs) {  // tail pairs (block width not 8-aligned)
      madd_q8_pairs(wr + 8 * groups, col_count - 8 * groups,
                    panel + groups * 8 * bp, bp, arow);
    }
  }
}

/// Builds one column pair's interleaved panel lane from the transposed
/// activation panel: int16 2b = cols[0][b], 2b+1 = cols[1][b] (or 0 when
/// n == 1 — the odd-tail column), widened to int16. `bp` is a multiple
/// of 8 so the whole column interleaves as straight loads + byte
/// unpack + sign extension, no strided scalar stores.
inline void interleave_q8_panel(const std::int8_t* const* cols,
                                std::size_t n, std::size_t bp,
                                std::int32_t* lanes) {
  const std::int8_t* c0 = cols[0];
  const std::int8_t* c1 = n > 1 ? cols[1] : nullptr;
  auto* lane = reinterpret_cast<std::int16_t*>(lanes);
  std::size_t b = 0;
  for (; b + 16 <= bp; b += 16) {
    const __m128i lo8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c0 + b));
    const __m128i hi8 =
        c1 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(c1 + b))
           : _mm_setzero_si128();
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b),
        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(lo8, hi8)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b + 16),
        _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(lo8, hi8)));
  }
  if (b < bp) {  // 8-lane tail: one 64-bit load per column
    const __m128i lo8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c0 + b));
    const __m128i hi8 =
        c1 ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c1 + b))
           : _mm_setzero_si128();
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b),
        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(lo8, hi8)));
  }
}

#endif  // __AVXVNNI__

#else  // portable fallback: same summation tree, scalar lanes

namespace quant_detail {

template <typename LoadX>
inline float dot_lanes(const std::int8_t* q, std::size_t n, LoadX load) {
  float lane[8] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      // One rounding per step, as _mm256_fmadd_ps in the AVX2 build, so
      // both builds return the same bits (the tail is unfused in both).
      lane[j] = std::fma(static_cast<float>(q[k + j]), load(k + j), lane[j]);
    }
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * load(k);
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

}  // namespace quant_detail

inline float dot_q8_f32(const std::int8_t* q, const float* x,
                        std::size_t n) {
  return quant_detail::dot_lanes(q, n,
                                 [x](std::size_t k) { return x[k]; });
}

inline float dot_q8_f32_indexed(const std::int8_t* q, const float* x,
                                const std::uint32_t* idx, std::size_t n) {
  return quant_detail::dot_lanes(
      q, n, [x, idx](std::size_t k) { return x[idx[k]]; });
}

inline constexpr std::size_t kQ8PanelCols = 2;
inline constexpr std::int32_t kQ8PanelOffset = 0;

/// Scalar form of the fused microkernel — identical int32 sums to the
/// AVX2 build by integer associativity. Panel layout matches: pair p's
/// lane b is (a[2p][b], a[2p+1][b]) as adjacent int16s.
inline void madd_q8_pairs(const std::int8_t* w, std::size_t n,
                          const std::int16_t* panel, std::size_t bp,
                          std::int32_t* acc) {
  const std::size_t pairs = (n + 1) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int32_t w0 = w[2 * p];
    const std::int32_t w1 = 2 * p + 1 < n ? w[2 * p + 1] : 0;
    const std::int16_t* lane = panel + p * 2 * bp;
    for (std::size_t b = 0; b < bp; ++b) {
      acc[b] += w0 * lane[2 * b] + w1 * lane[2 * b + 1];
    }
  }
}

/// Scalar form of the block kernel — row-by-row madd_q8_pairs, which is
/// the same int32 arithmetic the AVX2 build performs.
inline void matmat_q8_block(const std::int8_t* w, std::size_t col_count,
                            std::size_t n_rows, const std::int32_t* lanes,
                            std::size_t bp, std::int32_t* acc) {
  const auto* panel = reinterpret_cast<const std::int16_t*>(lanes);
  for (std::size_t i = 0; i < n_rows; ++i) {
    madd_q8_pairs(w + i * col_count, col_count, panel, bp, acc + i * bp);
  }
}

/// Scalar form of the panel interleave — same lane layout as the AVX2
/// build (values are exact either way).
inline void interleave_q8_panel(const std::int8_t* const* cols,
                                std::size_t n, std::size_t bp,
                                std::int32_t* lanes) {
  auto* lane = reinterpret_cast<std::int16_t*>(lanes);
  for (std::size_t b = 0; b < bp; ++b) {
    lane[2 * b] = cols[0][b];
    lane[2 * b + 1] = n > 1 ? cols[1][b] : std::int16_t{0};
  }
}

#endif

// ---- int8 matmat scratch and dequantization (shared by every build) ----

/// Panel lane groups the q8 matmat interleaves `cols` columns into.
inline std::size_t q8_lane_groups(std::size_t cols) {
  return (cols + kQ8PanelCols - 1) / kQ8PanelCols;
}

#if defined(__AVX2__) && defined(__FMA__)

namespace quant_detail {

/// One 8-row x 8-stream tile of dequantize_q8_span: rows[j] points at
/// tile row j's int32 sums of the tile's 8 streams, `scale` at the tile
/// rows' row_scale, `xs` at the streams' scales and `y` at the first
/// stream's output for the first tile row (stream stride ld). The sums
/// load as half-rows and transpose through float casts, which move bits
/// without touching them. Straight-line code keeps the tile in
/// registers, and every row of y is loaded before any is stored: y rows
/// are 4 KiB apart in the serving panels, and a load that aliases a
/// pending store modulo 4 KiB waits for it.
template <bool kAccumulate>
inline void dequantize_q8_tile(const std::int32_t* const (&rows)[8],
                               const float* scale, const float* xs, float* y,
                               std::size_t ld) {
  const auto half_rows = [&rows](std::size_t i, std::size_t k) {
    const auto lo = reinterpret_cast<const __m128i*>(rows[i] + k);
    const auto hi = reinterpret_cast<const __m128i*>(rows[i + 4] + k);
    return _mm256_castsi256_ps(
        _mm256_set_m128i(_mm_loadu_si128(hi), _mm_loadu_si128(lo)));
  };
  __m256 h[8] = {half_rows(0, 0), half_rows(1, 0), half_rows(2, 0),
                 half_rows(3, 0), half_rows(0, 4), half_rows(1, 4),
                 half_rows(2, 4), half_rows(3, 4)};
  fp32_lanes::transpose8_halves(h);
  const __m256 rs = _mm256_loadu_ps(scale);
  const auto scaled = [&](std::size_t s) {
    const __m256 sums = _mm256_cvtepi32_ps(_mm256_castps_si256(h[s]));
    __m256 v = _mm256_mul_ps(_mm256_mul_ps(sums, rs), _mm256_set1_ps(xs[s]));
    if constexpr (kAccumulate) {
      v = _mm256_add_ps(_mm256_loadu_ps(y + s * ld), v);
    }
    return v;
  };
  const __m256 v0 = scaled(0), v1 = scaled(1), v2 = scaled(2),
               v3 = scaled(3), v4 = scaled(4), v5 = scaled(5),
               v6 = scaled(6), v7 = scaled(7);
  _mm256_storeu_ps(y, v0);
  _mm256_storeu_ps(y + ld, v1);
  _mm256_storeu_ps(y + 2 * ld, v2);
  _mm256_storeu_ps(y + 3 * ld, v3);
  _mm256_storeu_ps(y + 4 * ld, v4);
  _mm256_storeu_ps(y + 5 * ld, v5);
  _mm256_storeu_ps(y + 6 * ld, v6);
  _mm256_storeu_ps(y + 7 * ld, v7);
}

}  // namespace quant_detail

#endif

/// The matmat's epilogue over one row span of `span` consecutive output
/// rows: sums_at(p) points at span row p's int32 sums (bp stream lanes,
/// from matmat_q8_block), or is `zero_row` (>= bp zero words) for a row
/// without any. For streams b < batch and each row p with sums,
///   y[b * ld + p] += (float(sum) * row_scale[p]) * xs[b]   (kAccumulate)
///   y[b * ld + p]  = (float(sum) * row_scale[p]) * xs[b]   (otherwise),
/// `y` and `row_scale` pointing at the span's first row. On AVX2 builds
/// whole groups of 8 rows x 8 streams run as register tiles, in which a
/// zero-row row adds exactly +0 to its finite y. Each output still gets
/// the scalar loop's two roundings and one add, and y is touched only
/// inside the span and below `batch`. The scalar loop takes what the
/// tiles leave (the last span % 8 rows and batch % 8 streams), and
/// everything on other builds.
template <bool kAccumulate, class SumsAt>
inline void dequantize_q8_span(const SumsAt& sums_at, std::size_t span,
                               const std::int32_t* zero_row,
                               const float* row_scale, const float* xs,
                               std::size_t batch, float* y, std::size_t ld) {
  std::size_t tiled_rows = 0;
  std::size_t tiled_streams = 0;
#if defined(__AVX2__) && defined(__FMA__)
  tiled_rows = span & ~std::size_t{7};
  tiled_streams = batch & ~std::size_t{7};
  // Stream groups outermost: consecutive tiles then write different
  // 32-byte slices of the same y rows instead of rows 4 KiB apart.
  for (std::size_t b0 = 0; b0 < tiled_streams; b0 += 8) {
    for (std::size_t r0 = 0; r0 < tiled_rows; r0 += 8) {
      const std::int32_t* const tile[8] = {
          sums_at(r0) + b0,     sums_at(r0 + 1) + b0, sums_at(r0 + 2) + b0,
          sums_at(r0 + 3) + b0, sums_at(r0 + 4) + b0, sums_at(r0 + 5) + b0,
          sums_at(r0 + 6) + b0, sums_at(r0 + 7) + b0};
      quant_detail::dequantize_q8_tile<kAccumulate>(
          tile, row_scale + r0, xs + b0, y + b0 * ld + r0, ld);
    }
  }
#endif
  for (std::size_t b = 0; b < batch; ++b) {
    float* yb = y + b * ld;
    for (std::size_t p = b < tiled_streams ? tiled_rows : 0; p < span; ++p) {
      const std::int32_t* sums = sums_at(p);
      if (sums == zero_row) continue;
      const float v = static_cast<float>(sums[b]) * row_scale[p] * xs[b];
      yb[p] = kAccumulate ? yb[p] + v : v;
    }
  }
}

}  // namespace rtmobile
