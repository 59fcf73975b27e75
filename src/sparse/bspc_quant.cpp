#include "sparse/bspc_quant.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/quant_dot.hpp"
#include "util/check.hpp"

namespace rtmobile {

namespace {

/// clamp(round(v / scale)) onto the symmetric int8 grid. scale == 0
/// means the row (or tensor) is all zeros, so every code is zero.
std::int8_t quantize_code(float value, float scale) {
  if (scale == 0.0F) return 0;
  const float q = std::round(value / scale);
  return static_cast<std::int8_t>(
      std::clamp(q, -kInt8CodeLimit, kInt8CodeLimit));
}

}  // namespace

PackedQuantizedBspc PackedQuantizedBspc::pack(const BspcMatrix& source,
                                              WeightPrecision precision) {
  RT_REQUIRE(precision != WeightPrecision::kFp32,
             "pack: fp32 keeps the BspcMatrix itself");
  PackedQuantizedBspc out;
  out.precision_ = precision;
  out.rows_ = source.rows();
  out.cols_ = source.cols();
  out.num_r_ = source.num_stripes();
  out.num_c_ = source.num_col_blocks();
  out.max_block_cols_ = source.max_block_cols();
  out.nnz_ = source.nnz();
  out.stripe_row_ptr_.assign(source.stripe_row_ptr().begin(),
                             source.stripe_row_ptr().end());
  for (std::size_t s = 0; s + 1 < out.stripe_row_ptr_.size(); ++s) {
    out.max_stripe_rows_ = std::max<std::size_t>(
        out.max_stripe_rows_,
        out.stripe_row_ptr_[s + 1] - out.stripe_row_ptr_[s]);
  }
  out.active_rows_.assign(source.active_rows().begin(),
                          source.active_rows().end());
  out.stripe_block_ptr_.assign(source.stripe_block_ptr().begin(),
                               source.stripe_block_ptr().end());
  out.blocks_.assign(source.blocks().begin(), source.blocks().end());
  out.col_pool_.assign(source.col_pool().begin(), source.col_pool().end());

  const std::span<const float> values = source.values();
  if (precision == WeightPrecision::kFp16) {
    out.f16_.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.f16_[i] = fp16_from_float(values[i]);
    }
    return out;
  }

  // Int8: one pass over the structure for the per-row (or tensor) max,
  // a second to emit codes. Visiting through the block refs attributes
  // every stored value to its global row.
  out.row_scale_.assign(out.rows_, 0.0F);
  std::vector<float> row_max(out.rows_, 0.0F);
  const auto for_each_value = [&](auto&& fn) {
    for (std::size_t s = 0; s < out.num_r_; ++s) {
      const std::size_t row_lo = out.stripe_row_ptr_[s];
      const std::size_t n_rows = out.stripe_row_ptr_[s + 1] - row_lo;
      for (std::uint32_t bi = out.stripe_block_ptr_[s];
           bi < out.stripe_block_ptr_[s + 1]; ++bi) {
        const BspcMatrix::BlockRef& ref = out.blocks_[bi];
        for (std::size_t i = 0; i < n_rows; ++i) {
          const std::uint32_t r = out.active_rows_[row_lo + i];
          const std::size_t base = ref.value_offset + i * ref.col_count;
          for (std::uint32_t k = 0; k < ref.col_count; ++k) {
            fn(base + k, r);
          }
        }
      }
    }
  };

  for_each_value([&](std::size_t v, std::uint32_t r) {
    row_max[r] = std::max(row_max[r], std::fabs(values[v]));
  });
  if (precision == WeightPrecision::kInt8PerTensor) {
    float tensor_max = 0.0F;
    for (const float m : row_max) tensor_max = std::max(tensor_max, m);
    std::fill(row_max.begin(), row_max.end(), tensor_max);
  }
  for (std::size_t r = 0; r < out.rows_; ++r) {
    out.row_scale_[r] = row_max[r] / kInt8CodeLimit;
  }

  out.q8_.resize(values.size());
  for_each_value([&](std::size_t v, std::uint32_t r) {
    out.q8_[v] = quantize_code(values[v], out.row_scale_[r]);
  });

  // The q8 matmat's panel adds kQ8PanelOffset to every activation code;
  // a row's share of that bias is kQ8PanelOffset * the sum of its codes
  // (all in one stripe), which the kernel cancels exactly.
  if constexpr (kQ8PanelOffset != 0) {
    out.q8_offset_sum_.assign(out.rows_, 0);
    for_each_value([&](std::size_t v, std::uint32_t r) {
      out.q8_offset_sum_[r] += kQ8PanelOffset * out.q8_[v];
    });
  }
  return out;
}

template <bool kUseLre>
void PackedQuantizedBspc::process_stripe(std::span<const float> x,
                                         std::span<float> y, std::size_t s,
                                         std::span<float> gathered) const {
  const std::size_t row_lo = stripe_row_ptr_[s];
  const std::size_t row_hi = stripe_row_ptr_[s + 1];
  const std::size_t n_rows = row_hi - row_lo;
  if (n_rows == 0) return;
  const bool is_int8 = !q8_.empty();
  for (std::uint32_t bi = stripe_block_ptr_[s]; bi < stripe_block_ptr_[s + 1];
       ++bi) {
    const BspcMatrix::BlockRef& ref = blocks_[bi];
    const std::uint32_t* cols = col_pool_.data() + ref.col_offset;
    if constexpr (kUseLre) {
      // Redundant load elimination: one gather of x per block, shared by
      // all rows of the stripe.
      for (std::uint32_t k = 0; k < ref.col_count; ++k) {
        gathered[k] = x[cols[k]];
      }
    }
    if (is_int8) {
      const std::int8_t* block_values = q8_.data() + ref.value_offset;
      const float* g = gathered.data();
      for (std::size_t i = 0; i < n_rows; ++i) {
        const std::int8_t* vrow = block_values + i * ref.col_count;
        const float acc =
            kUseLre ? dot_q8_f32(vrow, g, ref.col_count)
                    : dot_q8_f32_indexed(vrow, x.data(), cols,
                                         ref.col_count);
        const std::uint32_t r = active_rows_[row_lo + i];
        y[r] += acc * row_scale_[r];
      }
    } else {
      const std::uint16_t* block_values = f16_.data() + ref.value_offset;
      for (std::size_t i = 0; i < n_rows; ++i) {
        const std::uint16_t* vrow = block_values + i * ref.col_count;
        const float acc =
            kUseLre ? dot_f16_f32(vrow, gathered.data(), ref.col_count)
                    : dot_f16_f32_indexed(vrow, x.data(), cols,
                                          ref.col_count);
        y[active_rows_[row_lo + i]] += acc;
      }
    }
  }
}

void PackedQuantizedBspc::spmv(std::span<const float> x,
                               std::span<float> y) const {
  RT_REQUIRE(x.size() == cols_, "packed spmv: x size mismatch");
  RT_REQUIRE(y.size() == rows_, "packed spmv: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0F);
  std::vector<float> gathered(max_block_cols_);
  for (std::size_t s = 0; s < num_r_; ++s) {
    process_stripe<true>(x, y, s, gathered);
  }
}

void PackedQuantizedBspc::spmv_stripe_list(
    std::span<const float> x, std::span<float> y,
    std::span<const std::uint32_t> stripes, bool use_lre,
    std::span<float> gather) const {
  RT_REQUIRE(!use_lre || gather.size() >= max_block_cols_,
             "packed spmv: LRE gather scratch smaller than max_block_cols");
  for (const std::uint32_t s : stripes) {
    RT_REQUIRE(s < num_r_, "packed spmv: stripe index out of range");
    if (use_lre) {
      process_stripe<true>(x, y, s, gather);
    } else {
      process_stripe<false>(x, y, s, gather);
    }
  }
}

void PackedQuantizedBspc::spmv_stripe_list(
    std::span<const float> x, std::span<float> y,
    std::span<const std::uint32_t> stripes, bool use_lre) const {
  std::vector<float> gathered;
  if (use_lre) gathered.resize(max_block_cols_);
  spmv_stripe_list(x, y, stripes, use_lre,
                   {gathered.data(), gathered.size()});
}

void PackedQuantizedBspc::spmm_stripe_list(
    const Matrix& x, Matrix& y, std::size_t batch,
    std::span<const std::uint32_t> stripes, std::span<float> gather) const {
  RT_REQUIRE(x.cols() == cols_ && y.cols() == rows_,
             "packed spmm: panel shape mismatch");
  RT_REQUIRE(batch <= x.rows() && batch <= y.rows(),
             "packed spmm: batch exceeds panel");
  RT_REQUIRE(gather.size() >= batch * max_block_cols_,
             "packed spmm: gather scratch smaller than batch panel");
  const bool is_int8 = !q8_.empty();
  for (const std::uint32_t s : stripes) {
    RT_REQUIRE(s < num_r_, "packed spmm: stripe index out of range");
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t n_rows = stripe_row_ptr_[s + 1] - row_lo;
    if (n_rows == 0) continue;
    for (std::uint32_t bi = stripe_block_ptr_[s];
         bi < stripe_block_ptr_[s + 1]; ++bi) {
      const BspcMatrix::BlockRef& ref = blocks_[bi];
      const std::uint32_t* cols = col_pool_.data() + ref.col_offset;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x.row(b).data();
        float* g = gather.data() + b * max_block_cols_;
        for (std::uint32_t k = 0; k < ref.col_count; ++k) {
          g[k] = xb[cols[k]];
        }
      }
      if (is_int8) {
        const std::int8_t* block_values = q8_.data() + ref.value_offset;
        for (std::size_t i = 0; i < n_rows; ++i) {
          const std::int8_t* vrow = block_values + i * ref.col_count;
          const std::uint32_t r = active_rows_[row_lo + i];
          const float scale = row_scale_[r];
          for (std::size_t b = 0; b < batch; ++b) {
            const float* g = gather.data() + b * max_block_cols_;
            y.row(b)[r] += dot_q8_f32(vrow, g, ref.col_count) * scale;
          }
        }
      } else {
        const std::uint16_t* block_values = f16_.data() + ref.value_offset;
        for (std::size_t i = 0; i < n_rows; ++i) {
          const std::uint16_t* vrow = block_values + i * ref.col_count;
          const std::uint32_t r = active_rows_[row_lo + i];
          for (std::size_t b = 0; b < batch; ++b) {
            const float* g = gather.data() + b * max_block_cols_;
            y.row(b)[r] += dot_f16_f32(vrow, g, ref.col_count);
          }
        }
      }
    }
  }
}

void PackedQuantizedBspc::spmm_stripe_list_q8(
    const QuantizedActivations& x, Matrix& y, std::size_t batch,
    std::span<const std::uint32_t> stripes,
    std::span<std::int32_t> scratch) const {
  RT_REQUIRE(!q8_.empty(), "packed spmm q8: int8 weight storage required");
  RT_REQUIRE(x.dim == cols_ && y.cols() == rows_,
             "packed spmm q8: panel shape mismatch");
  RT_REQUIRE(batch <= x.batch && batch <= y.rows(),
             "packed spmm q8: batch exceeds panel");
  RT_REQUIRE(scratch.size() >= q8_scratch_words(batch),
             "packed spmm q8: scratch smaller than q8_scratch_words");
  const std::size_t bp = (batch + 7) & ~std::size_t{7};
  RT_REQUIRE(x.padded_batch >= bp,
             "packed spmm q8: panel not transpose()d for this batch");
  // Scratch layout: the interleaved activation panel (one int32 lane =
  // one stream's kQ8PanelCols codes), the stripe's int32 accumulators,
  // the zero row the epilogue reads for pruned rows, and the epilogue's
  // table of each span row's accumulator offset.
  std::int32_t* panel = scratch.data();
  std::int32_t* acc = scratch.data() + bp * q8_lane_groups(max_block_cols_);
  const auto zero_offset = static_cast<std::int32_t>(bp * max_stripe_rows_);
  std::int32_t* zero_row = acc + zero_offset;
  std::int32_t* slot = zero_row + bp;
  std::fill(zero_row, zero_row + bp, 0);
  for (const std::uint32_t s : stripes) {
    RT_REQUIRE(s < num_r_, "packed spmm q8: stripe index out of range");
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t n_rows = stripe_row_ptr_[s + 1] - row_lo;
    if (n_rows == 0) continue;
    // Each row's accumulators start at minus its pack-time offset sum
    // (none when the panel holds raw codes), so after the last block
    // they hold the exact code-by-code sums.
    for (std::size_t i = 0; i < n_rows; ++i) {
      const std::uint32_t r = active_rows_[row_lo + i];
      const std::int32_t bias = q8_offset_sum_.empty() ? 0 : q8_offset_sum_[r];
      std::fill(acc + i * bp, acc + (i + 1) * bp, -bias);
    }
    for (std::uint32_t bi = stripe_block_ptr_[s];
         bi < stripe_block_ptr_[s + 1]; ++bi) {
      const BspcMatrix::BlockRef& ref = blocks_[bi];
      const std::uint32_t* cols = col_pool_.data() + ref.col_offset;
      // Interleave once per block from the transposed activation panel:
      // lane group g's lane b holds stream b's codes of the block's
      // columns [g * kQ8PanelCols, (g + 1) * kQ8PanelCols). Columns are
      // stream-contiguous, so each group is straight loads + byte
      // interleave; pad lanes are already zero in tcodes.
      const std::size_t groups = q8_lane_groups(ref.col_count);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t k = g * kQ8PanelCols;
        const std::size_t n = std::min(kQ8PanelCols, ref.col_count - k);
        const std::int8_t* group[kQ8PanelCols] = {};
        for (std::size_t j = 0; j < n; ++j) group[j] = x.col(cols[k + j]);
        interleave_q8_panel(group, n, bp, panel + g * bp);
      }
      matmat_q8_block(q8_.data() + ref.value_offset, ref.col_count, n_rows,
                      panel, bp, acc);
    }
    // One dequantization per (row, stream) for the whole stripe, over
    // its row span, first to last active row. A stripe's rows are one
    // contiguous range, so threaded partitions with disjoint stripes
    // never share an output.
    const std::uint32_t* rows = active_rows_.data() + row_lo;
    const std::size_t first = rows[0];
    const std::size_t span = rows[n_rows - 1] - first + 1;
    std::fill(slot, slot + span, zero_offset);
    for (std::size_t i = 0; i < n_rows; ++i) {
      slot[rows[i] - first] = static_cast<std::int32_t>(i * bp);
    }
    dequantize_q8_span<true>(
        [acc, slot](std::size_t p) { return acc + slot[p]; }, span, zero_row,
        row_scale_.data() + first, x.scale.data(), batch, y.data() + first,
        y.cols());
  }
}

float PackedQuantizedBspc::dequantize_at(std::size_t value_index,
                                         std::size_t row) const {
  if (!q8_.empty()) {
    return static_cast<float>(q8_[value_index]) * row_scale_[row];
  }
  return fp16_bits_to_float(f16_[value_index]);
}

Matrix PackedQuantizedBspc::to_dense() const {
  Matrix dense(rows_, cols_, 0.0F);
  for (std::size_t s = 0; s < num_r_; ++s) {
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t n_rows = stripe_row_ptr_[s + 1] - row_lo;
    for (std::uint32_t bi = stripe_block_ptr_[s];
         bi < stripe_block_ptr_[s + 1]; ++bi) {
      const BspcMatrix::BlockRef& ref = blocks_[bi];
      for (std::size_t i = 0; i < n_rows; ++i) {
        const std::size_t r = active_rows_[row_lo + i];
        for (std::uint32_t k = 0; k < ref.col_count; ++k) {
          dense(r, col_pool_[ref.col_offset + k]) =
              dequantize_at(ref.value_offset + i * ref.col_count + k, r);
        }
      }
    }
  }
  return dense;
}

std::size_t PackedQuantizedBspc::q8_scratch_words(std::size_t batch) const {
  const std::size_t bp = (batch + 7) & ~std::size_t{7};
  return bp * (q8_lane_groups(max_block_cols_) + max_stripe_rows_ + 1) +
         rows_;
}

std::size_t PackedQuantizedBspc::memory_bytes(std::size_t index_bytes) const {
  const std::size_t meta_bytes =
      blocks_.size() * (2 * index_bytes + sizeof(std::uint64_t)) +
      (stripe_row_ptr_.size() + stripe_block_ptr_.size()) * index_bytes;
  std::size_t scale_bytes = 0;
  if (precision_ == WeightPrecision::kInt8PerRow) {
    scale_bytes = row_scale_.size() * sizeof(float);
  } else if (precision_ == WeightPrecision::kInt8PerTensor) {
    scale_bytes = sizeof(float);  // one scale, replicated only in memory
  }
  return nnz_ * bytes_per_weight(precision_) + scale_bytes +
         q8_offset_sum_.size() * sizeof(std::int32_t) +
         col_pool_.size() * index_bytes + active_rows_.size() * index_bytes +
         meta_bytes;
}

}  // namespace rtmobile
