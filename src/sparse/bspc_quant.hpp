// PackedQuantizedBspc — the BSPC format with int8/fp16 value storage.
//
// core/quantize only *simulates* storage precision: weights are rounded
// through the grid and dequantized back into fp32 matrices, so the hot
// loops never get smaller. This format actually stores the packed value
// payload at reduced width — int8 codes with per-row (or per-tensor)
// fp32 scales, or IEEE binary16 bits — while sharing BspcMatrix's
// structural metadata (stripe row sets, kept-column pool, block refs)
// byte for byte. Kernels accumulate in fp32 and apply the int8 scale
// once per (row, block) partial sum, so numerics stay within the grid's
// rounding bound of the dequantize-then-fp32 simulation; the fp16 path
// is bit-identical to it (fp16 -> fp32 conversion is exact and the loop
// structure matches BspcMatrix::spmv exactly).
//
// The throughput win is bandwidth: the value payload is 2-4x smaller,
// which is what the memory-bound batched serving path streams per
// stream per timestep.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/bspc.hpp"
#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"
#include "tensor/precision.hpp"

namespace rtmobile {

class PackedQuantizedBspc {
 public:
  PackedQuantizedBspc() = default;

  /// Quantizes `source`'s value payload under `precision` (kFp32 is
  /// rejected — keep the BspcMatrix itself for fp32). Int8 scales are
  /// computed over the kept entries only, which matches quantize_int8 on
  /// the masked dense matrix: pruned entries are zero there and cannot
  /// raise a row's max |w|.
  [[nodiscard]] static PackedQuantizedBspc pack(const BspcMatrix& source,
                                                WeightPrecision precision);

  [[nodiscard]] WeightPrecision precision() const { return precision_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t num_stripes() const { return num_r_; }
  [[nodiscard]] std::size_t nnz() const { return nnz_; }

  /// y = A x over all stripes (zeroes y first).
  void spmv(std::span<const float> x, std::span<float> y) const;

  /// Processes an explicit stripe list in order, accumulating into y —
  /// the unit the compiler's thread partition dispatches, mirroring
  /// BspcMatrix::spmv_stripe_list. Stripe row sets are disjoint, so
  /// concurrent calls with disjoint lists never race on y. `gather` is
  /// the caller-provided LRE scratch (>= max_block_cols() floats when
  /// use_lre); concurrent calls need disjoint buffers.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes, bool use_lre,
                        std::span<float> gather) const;
  /// Convenience overload that allocates its own gather scratch.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes,
                        bool use_lre = true) const;

  /// Widest block's kept-column count (the LRE gather scratch size).
  [[nodiscard]] std::size_t max_block_cols() const {
    return max_block_cols_;
  }

  /// Batched stripe-list form (the fused step's kernel): row b of X
  /// (b < batch) is an independent fp32 input vector and row b of Y
  /// accumulates (A X[b]) for the listed stripes (caller zeroes the
  /// rows). Weights stream once per block per batch; per-(row, stream)
  /// dots go through the same dot_q8_f32 / dot_f16_f32 helpers as
  /// spmv_stripe_list, so each stream's result is bit-identical to the
  /// per-vector path. `gather` needs batch * max_block_cols() floats
  /// (stream b's panel at offset b * max_block_cols()). LRE is implied:
  /// the batched gather is the redundant-load elimination.
  void spmm_stripe_list(const Matrix& x, Matrix& y, std::size_t batch,
                        std::span<const std::uint32_t> stripes,
                        std::span<float> gather) const;

  /// Batched stripe-list form over int8-quantized activations (int8
  /// weight storage only) — the fused step's throughput kernel. Codes
  /// multiply codes with exact int32 accumulation: each block's
  /// activation codes are gathered once into a stream-major interleaved
  /// panel, every group of weight codes is broadcast and multiplied
  /// across the whole batch (no per-stream horizontal reductions), and
  /// partial sums ride per-stripe int32 accumulators. On AVX-VNNI builds
  /// the panel holds 4 columns per 32-bit lane as unsigned bytes code +
  /// 128 and each weight quad is one vpdpbusd per 8 streams; the
  /// accumulators start at minus the pack-time 128 * sum(row codes), so
  /// the sums are unchanged. Other builds use int16 column pairs (see
  /// tensor/quant_dot.hpp). After a stripe's last block,
  /// dequantize_q8_span adds (float(sum) * row_scale[r]) * x.scale[b] to
  /// y[b][r], in 8-row x 8-stream register tiles over the stripe's row
  /// span on AVX2 builds (pruned rows of the span add +0) and row by row
  /// for what the tiles leave. Every build therefore writes the same bits, which are
  /// within the activation grid's rounding slack of spmm_stripe_list,
  /// not bitwise. Only rows of the listed stripes and streams < batch
  /// are written. `scratch` needs q8_scratch_words(batch) int32 words.
  void spmm_stripe_list_q8(const QuantizedActivations& x, Matrix& y,
                           std::size_t batch,
                           std::span<const std::uint32_t> stripes,
                           std::span<std::int32_t> scratch) const;

  /// int32 scratch words spmm_stripe_list_q8 needs at `batch`: the
  /// interleaved activation panel (ceil(max_block_cols / 4) lane groups
  /// on AVX-VNNI builds, ceil(max_block_cols / 2) otherwise), the
  /// stripe accumulator block and one zero row, all padded to 8-stream
  /// lanes (the transposed activation panel's lane group), plus one
  /// word per row for the epilogue's row-span table.
  [[nodiscard]] std::size_t q8_scratch_words(std::size_t batch) const;

  /// Dequantized dense reconstruction (for verification).
  [[nodiscard]] Matrix to_dense() const;

  /// Storage footprint: packed values at their true width, plus scales,
  /// plus the q8 kernel's per-row offset sums (AVX-VNNI builds), plus the
  /// shared structural metadata.
  [[nodiscard]] std::size_t memory_bytes(std::size_t index_bytes = 4) const;

 private:
  template <bool kUseLre>
  void process_stripe(std::span<const float> x, std::span<float> y,
                      std::size_t s, std::span<float> gathered) const;

  [[nodiscard]] float dequantize_at(std::size_t value_index,
                                    std::size_t row) const;

  WeightPrecision precision_ = WeightPrecision::kInt8PerTensor;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t num_r_ = 0;
  std::size_t num_c_ = 0;
  std::size_t max_block_cols_ = 0;
  /// Widest stripe's active-row count (sizes the q8 kernel's per-stripe
  /// int32 accumulator block).
  std::size_t max_stripe_rows_ = 0;
  std::size_t nnz_ = 0;
  // Structural metadata, copied verbatim from the source BspcMatrix.
  std::vector<std::uint32_t> stripe_row_ptr_;
  std::vector<std::uint32_t> active_rows_;
  std::vector<std::uint32_t> stripe_block_ptr_;
  std::vector<BspcMatrix::BlockRef> blocks_;
  std::vector<std::uint32_t> col_pool_;
  // Value payload: exactly one of these is populated.
  std::vector<std::int8_t, AlignedAllocator<std::int8_t>> q8_;
  std::vector<std::uint16_t, AlignedAllocator<std::uint16_t>> f16_;
  /// Dequantization scale per global row (per-tensor precision stores
  /// the one tensor scale replicated, keeping the kernel uniform).
  std::vector<float, AlignedAllocator<float>> row_scale_;
  /// Per global row, 128 * the sum of its int8 codes: what the AVX-VNNI
  /// q8 kernel's code + 128 panel adds to each row's int32 sums. Empty
  /// on builds whose panel holds raw codes, and for fp16.
  std::vector<std::int32_t> q8_offset_sum_;
};

}  // namespace rtmobile
