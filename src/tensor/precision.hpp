// Weight storage precision primitives.
//
// The paper's mobile GPU kernels store weights in 16-bit floating point
// ("Our GPU implementation uses 16-bit floating point"); the CPU path is
// fp32. WeightPrecision names the storage grid a compiled weight matrix
// carries; the fp16 conversion helpers implement IEEE binary16 with
// round-to-nearest-even. These live in the tensor layer so the packed
// sparse formats (src/sparse) and the compiler (src/compiler) can share
// them without depending on the model layer; core/quantize re-exports
// them for the storage-simulation API.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/aligned.hpp"

namespace rtmobile {

enum class WeightPrecision : std::uint8_t {
  kFp32,          // reference, 4 bytes/weight
  kFp16,          // IEEE 754 binary16, 2 bytes/weight (the paper's GPU path)
  kInt8PerTensor, // symmetric int8, one scale per matrix
  kInt8PerRow,    // symmetric int8, one scale per output row
};

[[nodiscard]] const char* to_string(WeightPrecision precision);

/// Parses the names to_string produces ("fp32", "fp16", "int8",
/// "int8/row"); throws std::invalid_argument on anything else.
[[nodiscard]] WeightPrecision weight_precision_from_string(
    const char* name);

/// Stored bytes per weight under the precision (scales amortize to ~0).
[[nodiscard]] std::size_t bytes_per_weight(WeightPrecision precision);

/// float -> IEEE binary16 bit pattern, round-to-nearest-even; handles
/// normals, subnormals, overflow-to-infinity, and NaN.
[[nodiscard]] std::uint16_t fp16_from_float(float value);

/// IEEE binary16 bit pattern -> float (exact).
[[nodiscard]] float fp16_to_float(std::uint16_t half_bits);

/// Rounds a float through fp16 storage (quantize + dequantize).
[[nodiscard]] float fp16_round_trip(float value);

/// Hot-path fp16 -> fp32 conversion: branch-light integer
/// manipulation, exact for every binary16 value (tests verify all
/// 65536 patterns against fp16_to_float). Deliberately has exactly one
/// definition across the project — no per-ISA #if — so including it
/// anywhere is ODR-safe; the bulk kernels batch conversions through
/// F16C intrinsics inside tensor/quant_dot.hpp instead and fall back
/// to this for tails.
inline float fp16_bits_to_float(std::uint16_t half_bits) {
  // Shift mantissa+exponent into binary32 position and rebias; the
  // subnormal branch renormalizes exactly via one float subtraction.
  const std::uint32_t sign = static_cast<std::uint32_t>(half_bits & 0x8000U)
                             << 16;
  std::uint32_t o = static_cast<std::uint32_t>(half_bits & 0x7FFFU) << 13;
  const std::uint32_t exponent = o & 0x0F800000U;  // 0x7C00 << 13
  o += (127U - 15U) << 23;
  if (exponent == 0x0F800000U) {
    o += (128U - 16U) << 23;  // inf / nan: force exponent to 0xFF
  } else if (exponent == 0U) {
    // Zero / subnormal: value is mantissa * 2^-24. Adding the implicit
    // bit and subtracting 2^-14 computes that exactly in float.
    o += 1U << 23;
    o = std::bit_cast<std::uint32_t>(std::bit_cast<float>(o) -
                                     std::bit_cast<float>(113U << 23));
  }
  return std::bit_cast<float>(o | sign);
}

/// The symmetric int8 grid: codes live in [-127, 127] (the -128 slot is
/// unused so negation cannot overflow), dequantized as code * scale with
/// scale = max|w| / 127.
inline constexpr float kInt8CodeLimit = 127.0F;

/// Storage grid for the *activations* flowing through the fused batched
/// step (weights have their own WeightPrecision). kInt8 puts every
/// stream's activation vector on the same symmetric grid as the int8
/// weights, so the packed matmat kernels multiply code by code and
/// accumulate in int32 — exact integer arithmetic, therefore identical
/// across SIMD widths and summation orders — instead of round-tripping
/// the panel through fp32. Only int8 weight plans consume it; fp32/fp16
/// plans ignore the setting and read the fp32 panel.
enum class ActivationPrecision : std::uint8_t {
  kFp32,  // activations stay fp32 (the default; numerics unchanged)
  kInt8,  // symmetric per-stream int8 codes, int32 accumulation
};

[[nodiscard]] const char* to_string(ActivationPrecision precision);

/// Parses "fp32" / "int8"; throws std::invalid_argument otherwise.
[[nodiscard]] ActivationPrecision activation_precision_from_string(
    const char* name);

/// A batch of activation vectors quantized onto the symmetric int8 grid,
/// one scale per stream (scale = max|x| / 127 over that stream's vector,
/// so the panel's dynamic range per stream is preserved). Buffers are
/// grow-only: resize() never shrinks, which is what keeps the serving
/// step path allocation-free once the widest panel has been seen.
struct QuantizedActivations {
  std::size_t batch = 0;
  std::size_t dim = 0;
  /// Row-major [batch x dim] code panel (row b = stream b's codes).
  std::vector<std::int8_t, AlignedAllocator<std::int8_t>> codes;
  /// Per-stream dequantization scale (codes[b] * scale[b] ~= x[b]).
  std::vector<float, AlignedAllocator<float>> scale;

  /// Sets the logical shape, growing the buffers if needed (never
  /// shrinking). Contents are unspecified until quantize_row() fills
  /// each row.
  void resize(std::size_t new_batch, std::size_t new_dim);

  /// Quantizes one stream's finite activation vector (x.size() == dim)
  /// into row b: scale[b] = max|x| / 127, codes = round(x * 127 / max|x|)
  /// clamped to the grid (half away from zero); all-zero codes when
  /// max|x| < 127 / FLT_MAX. Element-wise exact arithmetic —
  /// deterministic and identical on every build, vectorized or not.
  void quantize_row(std::size_t b, std::span<const float> x);

  /// Builds the column-major mirror of rows [0, active_batch): tcodes
  /// lays out each activation dimension's codes contiguously across
  /// streams, padded with zero lanes to a multiple of 8 so the matmat
  /// kernels can load whole stream groups with one instruction. Full
  /// 16-stream x 16-dimension tiles transpose with SSE2 byte unpacks
  /// (scalar for the remainder and on other ISAs). Call after every row
  /// is quantized; the padded width becomes padded_batch. Grow-only
  /// like the row-major panel.
  void transpose(std::size_t active_batch);

  [[nodiscard]] const std::int8_t* row(std::size_t b) const {
    return codes.data() + b * dim;
  }

  /// Dimension c's codes across all padded_batch stream lanes (valid
  /// after transpose()).
  [[nodiscard]] const std::int8_t* col(std::size_t c) const {
    return tcodes.data() + c * padded_batch;
  }

  /// Stream lanes per tcodes column: the transpose()d batch rounded up
  /// to 8, pad lanes zeroed.
  std::size_t padded_batch = 0;
  /// Column-major [dim x padded_batch] code panel (built by transpose()).
  std::vector<std::int8_t, AlignedAllocator<std::int8_t>> tcodes;
};

}  // namespace rtmobile
