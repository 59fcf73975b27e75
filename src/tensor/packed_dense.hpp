// PackedDenseMatrix — dense row-major weights stored at int8/fp16 width.
//
// The compiler leaves unpruned matrices (typically the FC output layer)
// dense; when CompilerOptions::precision asks for reduced storage those
// plans pack here instead of carrying fp32. Same numerics contract as
// PackedQuantizedBspc: fp32 accumulation, int8 scales applied once per
// row, fp16 bit-identical to running the fp32 GEMV on fp16-rounded
// weights (the per-row accumulation order matches gemv exactly).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"
#include "tensor/precision.hpp"

namespace rtmobile {

class PackedDenseMatrix {
 public:
  PackedDenseMatrix() = default;

  /// Quantizes `weights` under `precision` (kFp32 rejected — keep the
  /// Matrix itself for fp32).
  [[nodiscard]] static PackedDenseMatrix pack(const Matrix& weights,
                                              WeightPrecision precision);

  [[nodiscard]] WeightPrecision precision() const { return precision_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }

  /// y = W x with fp32 accumulation.
  void gemv(std::span<const float> x, std::span<float> y) const;

  /// Rows [row_begin, row_end) only — the unit the threaded dense plan
  /// partitions across the pool.
  void gemv_rows(std::span<const float> x, std::span<float> y,
                 std::size_t row_begin, std::size_t row_end) const;

  /// Batched matmat over rows [row_begin, row_end): row b of X
  /// (b < batch) is an independent input vector and row b of Y receives
  /// (W X[b]) for those rows. Each weight row is streamed once for the
  /// whole batch; per-(row, stream) dots go through the same helpers as
  /// gemv_rows, so every stream's result is bit-identical to the
  /// per-vector path. X/Y may have extra trailing rows.
  void gemm_rows(const Matrix& x, Matrix& y, std::size_t batch,
                 std::size_t row_begin, std::size_t row_end) const;

  /// Same over int8-quantized activations (int8 weight storage only),
  /// on the fused matmat PackedQuantizedBspc::spmm_stripe_list_q8 runs
  /// (tensor/quant_dot.hpp), with rows [row_begin, row_end) as one
  /// stripe of one block: the transpose()d panel is interleaved once,
  /// codes multiply codes with exact int32 accumulation, and row b of Y
  /// receives (float(sum) * row_scale[r]) * x.scale[b] for those rows,
  /// in 8-row x 8-stream register tiles on AVX2 builds. Every build
  /// writes the same bits, within the activation grid's rounding slack
  /// of gemm_rows, not bitwise. `scratch` needs q8_scratch_words(batch)
  /// int32 words; concurrent calls need disjoint scratch.
  void gemm_rows_q8(const QuantizedActivations& x, Matrix& y,
                    std::size_t batch, std::size_t row_begin,
                    std::size_t row_end,
                    std::span<std::int32_t> scratch) const;

  /// int32 scratch words gemm_rows_q8 needs at `batch`: the interleaved
  /// panel of all cols() columns plus accumulators for all rows(), both
  /// padded to 8-stream lanes.
  [[nodiscard]] std::size_t q8_scratch_words(std::size_t batch) const;

  /// Dequantized dense reconstruction (for verification).
  [[nodiscard]] Matrix to_dense() const;

  /// Entries that dequantize to a nonzero value.
  [[nodiscard]] std::size_t count_nonzero() const;

  /// Values at their stored width plus scale overhead, plus the q8
  /// kernel's per-row offset sums (AVX-VNNI builds).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  WeightPrecision precision_ = WeightPrecision::kInt8PerTensor;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t, AlignedAllocator<std::int8_t>> q8_;
  std::vector<std::uint16_t, AlignedAllocator<std::uint16_t>> f16_;
  std::vector<float, AlignedAllocator<float>> row_scale_;  // int8 only
  /// Per row, kQ8PanelOffset * the sum of its int8 codes (see
  /// PackedQuantizedBspc). Empty unless the build's q8 panel is offset.
  std::vector<std::int32_t> q8_offset_sum_;
};

}  // namespace rtmobile
