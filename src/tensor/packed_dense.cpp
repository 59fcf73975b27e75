#include "tensor/packed_dense.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/quant_dot.hpp"
#include "util/check.hpp"

namespace rtmobile {

PackedDenseMatrix PackedDenseMatrix::pack(const Matrix& weights,
                                          WeightPrecision precision) {
  RT_REQUIRE(precision != WeightPrecision::kFp32,
             "pack: fp32 keeps the Matrix itself");
  PackedDenseMatrix out;
  out.precision_ = precision;
  out.rows_ = weights.rows();
  out.cols_ = weights.cols();

  if (precision == WeightPrecision::kFp16) {
    out.f16_.resize(weights.size());
    const std::span<const float> values = weights.span();
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.f16_[i] = fp16_from_float(values[i]);
    }
    return out;
  }

  out.row_scale_.assign(out.rows_, 0.0F);
  if (precision == WeightPrecision::kInt8PerTensor) {
    float max_abs = 0.0F;
    for (const float w : weights.span()) {
      max_abs = std::max(max_abs, std::fabs(w));
    }
    std::fill(out.row_scale_.begin(), out.row_scale_.end(),
              max_abs / kInt8CodeLimit);
  } else {
    for (std::size_t r = 0; r < out.rows_; ++r) {
      float max_abs = 0.0F;
      for (const float w : weights.row(r)) {
        max_abs = std::max(max_abs, std::fabs(w));
      }
      out.row_scale_[r] = max_abs / kInt8CodeLimit;
    }
  }

  out.q8_.resize(weights.size());
  for (std::size_t r = 0; r < out.rows_; ++r) {
    const float scale = out.row_scale_[r];
    const std::span<const float> row = weights.row(r);
    std::int8_t* q = out.q8_.data() + r * out.cols_;
    for (std::size_t c = 0; c < out.cols_; ++c) {
      if (scale == 0.0F) {
        q[c] = 0;
      } else {
        q[c] = static_cast<std::int8_t>(std::clamp(
            std::round(row[c] / scale), -kInt8CodeLimit, kInt8CodeLimit));
      }
    }
  }
  // The q8 matmat's offset panel adds kQ8PanelOffset to every activation
  // code; each row's share is cancelled exactly from this sum.
  if constexpr (kQ8PanelOffset != 0) {
    out.q8_offset_sum_.assign(out.rows_, 0);
    for (std::size_t r = 0; r < out.rows_; ++r) {
      const std::int8_t* q = out.q8_.data() + r * out.cols_;
      for (std::size_t c = 0; c < out.cols_; ++c) {
        out.q8_offset_sum_[r] += kQ8PanelOffset * q[c];
      }
    }
  }
  return out;
}

void PackedDenseMatrix::gemv(std::span<const float> x,
                             std::span<float> y) const {
  gemv_rows(x, y, 0, rows_);
}

void PackedDenseMatrix::gemv_rows(std::span<const float> x,
                                  std::span<float> y, std::size_t row_begin,
                                  std::size_t row_end) const {
  RT_REQUIRE(x.size() == cols_ && y.size() == rows_,
             "packed gemv: shape mismatch");
  RT_REQUIRE(row_begin <= row_end && row_end <= rows_,
             "packed gemv: row range out of bounds");
  if (!q8_.empty()) {
    const float* xp = x.data();
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const std::int8_t* row = q8_.data() + r * cols_;
      y[r] = dot_q8_f32(row, xp, cols_) * row_scale_[r];
    }
  } else {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const std::uint16_t* row = f16_.data() + r * cols_;
      y[r] = dot_f16_f32(row, x.data(), cols_);
    }
  }
}

void PackedDenseMatrix::gemm_rows(const Matrix& x, Matrix& y,
                                  std::size_t batch, std::size_t row_begin,
                                  std::size_t row_end) const {
  RT_REQUIRE(x.cols() == cols_ && y.cols() == rows_,
             "packed gemm: shape mismatch");
  RT_REQUIRE(batch <= x.rows() && batch <= y.rows(),
             "packed gemm: batch exceeds panel");
  RT_REQUIRE(row_begin <= row_end && row_end <= rows_,
             "packed gemm: row range out of bounds");
  if (!q8_.empty()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const std::int8_t* row = q8_.data() + r * cols_;
      const float scale = row_scale_[r];
      for (std::size_t b = 0; b < batch; ++b) {
        y.row(b)[r] = dot_q8_f32(row, x.row(b).data(), cols_) * scale;
      }
    }
  } else {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const std::uint16_t* row = f16_.data() + r * cols_;
      for (std::size_t b = 0; b < batch; ++b) {
        y.row(b)[r] = dot_f16_f32(row, x.row(b).data(), cols_);
      }
    }
  }
}

void PackedDenseMatrix::gemm_rows_q8(const QuantizedActivations& x, Matrix& y,
                                     std::size_t batch, std::size_t row_begin,
                                     std::size_t row_end,
                                     std::span<std::int32_t> scratch) const {
  RT_REQUIRE(!q8_.empty(), "packed gemm q8: int8 weight storage required");
  RT_REQUIRE(x.dim == cols_ && y.cols() == rows_,
             "packed gemm q8: shape mismatch");
  RT_REQUIRE(batch <= x.batch && batch <= y.rows(),
             "packed gemm q8: batch exceeds panel");
  RT_REQUIRE(row_begin <= row_end && row_end <= rows_,
             "packed gemm q8: row range out of bounds");
  RT_REQUIRE(scratch.size() >= q8_scratch_words(batch),
             "packed gemm q8: scratch smaller than q8_scratch_words");
  const std::size_t bp = (batch + 7) & ~std::size_t{7};
  RT_REQUIRE(x.padded_batch >= bp,
             "packed gemm q8: panel not transpose()d for this batch");
  const std::size_t n_rows = row_end - row_begin;
  if (n_rows == 0) return;
  // Scratch layout as in PackedQuantizedBspc::spmm_stripe_list_q8: the
  // interleaved panel of every column, then the rows' accumulators.
  const std::size_t groups = q8_lane_groups(cols_);
  std::int32_t* panel = scratch.data();
  std::int32_t* acc = panel + bp * groups;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t k = g * kQ8PanelCols;
    const std::size_t n = std::min(kQ8PanelCols, cols_ - k);
    const std::int8_t* group[kQ8PanelCols] = {};
    for (std::size_t j = 0; j < n; ++j) group[j] = x.col(k + j);
    interleave_q8_panel(group, n, bp, panel + g * bp);
  }
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::int32_t bias =
        q8_offset_sum_.empty() ? 0 : q8_offset_sum_[row_begin + i];
    std::fill(acc + i * bp, acc + (i + 1) * bp, -bias);
  }
  matmat_q8_block(q8_.data() + row_begin * cols_, cols_, n_rows, panel, bp,
                  acc);
  dequantize_q8_span<false>(
      [acc, bp](std::size_t p) { return acc + p * bp; }, n_rows, nullptr,
      row_scale_.data() + row_begin, x.scale.data(), batch,
      y.data() + row_begin, y.cols());
}

std::size_t PackedDenseMatrix::q8_scratch_words(std::size_t batch) const {
  const std::size_t bp = (batch + 7) & ~std::size_t{7};
  return bp * (q8_lane_groups(cols_) + rows_);
}

Matrix PackedDenseMatrix::to_dense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      dense(r, c) = q8_.empty()
                        ? fp16_bits_to_float(f16_[r * cols_ + c])
                        : static_cast<float>(q8_[r * cols_ + c]) *
                              row_scale_[r];
    }
  }
  return dense;
}

std::size_t PackedDenseMatrix::count_nonzero() const {
  std::size_t count = 0;
  if (!q8_.empty()) {
    for (const std::int8_t q : q8_) count += q != 0 ? 1 : 0;
  } else {
    // fp16 zero is 0x0000 or signed 0x8000.
    for (const std::uint16_t b : f16_) {
      count += (b & 0x7FFFU) != 0 ? 1 : 0;
    }
  }
  return count;
}

std::size_t PackedDenseMatrix::memory_bytes() const {
  std::size_t scale_bytes = 0;
  if (precision_ == WeightPrecision::kInt8PerRow) {
    scale_bytes = row_scale_.size() * sizeof(float);
  } else if (precision_ == WeightPrecision::kInt8PerTensor) {
    scale_bytes = sizeof(float);
  }
  return size() * bytes_per_weight(precision_) + scale_bytes +
         q8_offset_sum_.size() * sizeof(std::int32_t);
}

}  // namespace rtmobile
