#include "tensor/precision.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rtmobile {

const char* to_string(WeightPrecision precision) {
  switch (precision) {
    case WeightPrecision::kFp32: return "fp32";
    case WeightPrecision::kFp16: return "fp16";
    case WeightPrecision::kInt8PerTensor: return "int8";
    case WeightPrecision::kInt8PerRow: return "int8/row";
  }
  return "?";
}

WeightPrecision weight_precision_from_string(const char* name) {
  if (std::strcmp(name, "fp32") == 0) return WeightPrecision::kFp32;
  if (std::strcmp(name, "fp16") == 0) return WeightPrecision::kFp16;
  if (std::strcmp(name, "int8") == 0) return WeightPrecision::kInt8PerTensor;
  if (std::strcmp(name, "int8/row") == 0 ||
      std::strcmp(name, "int8row") == 0) {
    return WeightPrecision::kInt8PerRow;
  }
  throw std::invalid_argument(std::string("unknown weight precision: ") +
                              name);
}

const char* to_string(ActivationPrecision precision) {
  switch (precision) {
    case ActivationPrecision::kFp32: return "fp32";
    case ActivationPrecision::kInt8: return "int8";
  }
  return "?";
}

ActivationPrecision activation_precision_from_string(const char* name) {
  if (std::strcmp(name, "fp32") == 0) return ActivationPrecision::kFp32;
  if (std::strcmp(name, "int8") == 0) return ActivationPrecision::kInt8;
  throw std::invalid_argument(std::string("unknown activation precision: ") +
                              name);
}

void QuantizedActivations::resize(std::size_t new_batch,
                                  std::size_t new_dim) {
  batch = new_batch;
  dim = new_dim;
  if (codes.size() < batch * dim) codes.resize(batch * dim);
  if (scale.size() < batch) scale.resize(batch);
}

void QuantizedActivations::quantize_row(std::size_t b,
                                        std::span<const float> x) {
  // max|x| over the sign-cleared bit patterns: for non-negative floats
  // integer order is float order, so this is exact, and unlike a float
  // max (whose NaN rules block reassociation) the reduction vectorizes.
  constexpr std::int32_t kAbsMask = std::numeric_limits<std::int32_t>::max();
  std::int32_t max_bits = 0;
  for (const float v : x) {
    max_bits = std::max(max_bits, std::bit_cast<std::int32_t>(v) & kAbsMask);
  }
  const float max_abs = std::bit_cast<float>(max_bits);
  scale[b] = max_abs / kInt8CodeLimit;
  std::int8_t* out = codes.data() + b * dim;
  const float inv = kInt8CodeLimit / max_abs;
  // An all-zero row, or a max so small that its reciprocal overflows
  // (max|x| < 127 / FLT_MAX, which includes every zero scale), leaves no
  // code but 0.
  if (std::isinf(inv)) {
    std::fill(out, out + x.size(), std::int8_t{0});
    return;
  }
  // Round half away from zero (copysign(0.5) + truncation) on the code
  // grid, then clamp the integer: |x * inv| can round a hair above 127,
  // and clamping the int32 gives the same codes as clamping the float
  // first while keeping the loop branch-free, so it vectorizes.
  constexpr auto kLimit = static_cast<std::int32_t>(kInt8CodeLimit);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x[i] * inv;
    const auto code = static_cast<std::int32_t>(v + std::copysign(0.5F, v));
    out[i] = static_cast<std::int8_t>(std::clamp(code, -kLimit, kLimit));
  }
}

#if defined(__SSE2__)
namespace {

/// Transposes a 16 x 16 byte tile: row r of the source (16 bytes at
/// src + r * src_stride) becomes column r of the destination. Four
/// rounds of pairwise byte unpacks (registers i and i + 8) each rotate
/// the (register, byte) index bits by one, so after four the register
/// index and the byte index have swapped.
void transpose_tile_16x16(const std::int8_t* src, std::size_t src_stride,
                          std::int8_t* dst, std::size_t dst_stride) {
  __m128i t[16];
  for (std::size_t r = 0; r < 16; ++r) {
    t[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + r * src_stride));
  }
  for (int round = 0; round < 4; ++round) {
    __m128i u[16];
    for (std::size_t i = 0; i < 8; ++i) {
      u[2 * i] = _mm_unpacklo_epi8(t[i], t[i + 8]);
      u[2 * i + 1] = _mm_unpackhi_epi8(t[i], t[i + 8]);
    }
    std::copy(u, u + 16, t);
  }
  for (std::size_t c = 0; c < 16; ++c) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + c * dst_stride),
                     t[c]);
  }
}

}  // namespace
#endif

void QuantizedActivations::transpose(std::size_t active_batch) {
  const std::size_t padded = (active_batch + 7) & ~std::size_t{7};
  padded_batch = padded;
  if (tcodes.size() < dim * padded) tcodes.resize(dim * padded);
  // 16 x 16 SIMD tiles over the full-tile region, scalar for the
  // remaining streams and dimensions.
  std::size_t tiled_batch = 0;
  std::size_t tiled_dim = 0;
#if defined(__SSE2__)
  tiled_batch = active_batch & ~std::size_t{15};
  tiled_dim = dim & ~std::size_t{15};
  for (std::size_t b = 0; b < tiled_batch; b += 16) {
    for (std::size_t c = 0; c < tiled_dim; c += 16) {
      transpose_tile_16x16(codes.data() + b * dim + c, dim,
                           tcodes.data() + c * padded + b, padded);
    }
  }
#endif
  for (std::size_t c = 0; c < dim; ++c) {
    std::int8_t* out = tcodes.data() + c * padded;
    const std::size_t b_begin = c < tiled_dim ? tiled_batch : 0;
    for (std::size_t b = b_begin; b < active_batch; ++b) {
      out[b] = codes[b * dim + c];
    }
    std::fill(out + active_batch, out + padded, std::int8_t{0});
  }
}

std::size_t bytes_per_weight(WeightPrecision precision) {
  switch (precision) {
    case WeightPrecision::kFp32: return 4;
    case WeightPrecision::kFp16: return 2;
    case WeightPrecision::kInt8PerTensor:
    case WeightPrecision::kInt8PerRow:
      return 1;
  }
  return 4;
}

std::uint16_t fp16_from_float(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000U;
  const std::uint32_t exponent = (bits >> 23) & 0xFFU;
  std::uint32_t mantissa = bits & 0x7FFFFFU;

  if (exponent == 0xFFU) {
    // Inf / NaN: preserve NaN-ness with a quiet mantissa bit.
    return static_cast<std::uint16_t>(
        sign | 0x7C00U | (mantissa != 0 ? 0x0200U : 0U));
  }

  // Unbias from float (127) and rebias for half (15).
  const int half_exponent = static_cast<int>(exponent) - 127 + 15;
  if (half_exponent >= 0x1F) {
    // Overflow: round to infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00U);
  }
  if (half_exponent <= 0) {
    // Subnormal half (or underflow to zero). Shift the implicit leading 1
    // into the mantissa and denormalize.
    if (half_exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000U;
    const int shift = 14 - half_exponent;  // 14..24
    const std::uint32_t rounded = mantissa >> shift;
    const std::uint32_t remainder = mantissa & ((1U << shift) - 1U);
    const std::uint32_t halfway = 1U << (shift - 1);
    std::uint32_t result = rounded;
    if (remainder > halfway || (remainder == halfway && (rounded & 1U))) {
      ++result;  // round to nearest even
    }
    return static_cast<std::uint16_t>(sign | result);
  }

  // Normal half: keep 10 mantissa bits with round-to-nearest-even.
  std::uint32_t result =
      sign | (static_cast<std::uint32_t>(half_exponent) << 10) |
      (mantissa >> 13);
  const std::uint32_t remainder = mantissa & 0x1FFFU;
  if (remainder > 0x1000U || (remainder == 0x1000U && (result & 1U))) {
    ++result;  // may carry into the exponent — that is correct rounding
  }
  return static_cast<std::uint16_t>(result);
}

float fp16_to_float(std::uint16_t half_bits) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half_bits) & 0x8000U)
                             << 16;
  const std::uint32_t exponent = (half_bits >> 10) & 0x1FU;
  const std::uint32_t mantissa = half_bits & 0x3FFU;

  std::uint32_t bits;
  if (exponent == 0x1FU) {
    bits = sign | 0x7F800000U | (mantissa << 13);  // inf / nan
  } else if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half -> normalized float.
      int e = -1;
      std::uint32_t m = mantissa;
      while ((m & 0x400U) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3FFU;
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             (m << 13);
    }
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

float fp16_round_trip(float value) {
  return fp16_to_float(fp16_from_float(value));
}

}  // namespace rtmobile
