#include "tensor/gemm.hpp"

#include <algorithm>

#include "tensor/fp32_lanes.hpp"
#include "util/check.hpp"

namespace rtmobile {
namespace {

void require_gemv_shapes(const Matrix& w, std::span<const float> x,
                         std::span<float> y) {
  RT_REQUIRE(w.cols() == x.size(), "gemv: W.cols must equal x.size");
  RT_REQUIRE(w.rows() == y.size(), "gemv: W.rows must equal y.size");
}

}  // namespace

void gemv_naive(const Matrix& w, std::span<const float> x,
                std::span<float> y) {
  require_gemv_shapes(w, x, y);
  for (std::size_t r = 0; r < w.rows(); ++r) {
    double acc = 0.0;
    const float* row = w.data() + r * w.cols();
    for (std::size_t c = 0; c < w.cols(); ++c) {
      acc += static_cast<double>(row[c]) * static_cast<double>(x[c]);
    }
    y[r] = static_cast<float>(acc);
  }
}

void gemv(const Matrix& w, std::span<const float> x, std::span<float> y) {
  require_gemv_shapes(w, x, y);
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  const float* base = w.data();
#if defined(__AVX2__)
  // Eight rows per register (rows in lanes), each lane summing in the
  // scalar loop's order below, so both builds return the same bits.
  alignas(32) float lane[8];
  for (std::size_t r = 0; r < rows; r += 8) {
    const std::size_t count = std::min<std::size_t>(8, rows - r);
    __m256 acc[1];
    fp32_lanes::rows_dot8(base + r * cols, cols, count, x.data(), 0, cols,
                          acc);
    _mm256_store_ps(lane, acc[0]);
    std::copy_n(lane, count, y.begin() + static_cast<std::ptrdiff_t>(r));
  }
#else
  std::size_t r = 0;
  // Process four rows at a time so the x vector is streamed once per
  // group of rows instead of once per row.
  for (; r + 4 <= rows; r += 4) {
    const float* row0 = base + (r + 0) * cols;
    const float* row1 = base + (r + 1) * cols;
    const float* row2 = base + (r + 2) * cols;
    const float* row3 = base + (r + 3) * cols;
    float acc0 = 0.0F;
    float acc1 = 0.0F;
    float acc2 = 0.0F;
    float acc3 = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      const float xv = x[c];
      acc0 += row0[c] * xv;
      acc1 += row1[c] * xv;
      acc2 += row2[c] * xv;
      acc3 += row3[c] * xv;
    }
    y[r + 0] = acc0;
    y[r + 1] = acc1;
    y[r + 2] = acc2;
    y[r + 3] = acc3;
  }
  for (; r < rows; ++r) {
    const float* row = base + r * cols;
    float acc = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
#endif
}

void gemv_accumulate(const Matrix& w, std::span<const float> x,
                     std::span<float> y) {
  require_gemv_shapes(w, x, y);
  const std::size_t cols = w.cols();
  const float* base = w.data();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const float* row = base + r * cols;
    float acc = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] += acc;
  }
}

void gemv_transposed(const Matrix& w, std::span<const float> x,
                     std::span<float> y) {
  RT_REQUIRE(w.rows() == x.size(), "gemv_transposed: W.rows must equal x.size");
  RT_REQUIRE(w.cols() == y.size(), "gemv_transposed: W.cols must equal y.size");
  std::fill(y.begin(), y.end(), 0.0F);
  gemv_transposed_accumulate(w, x, y);
}

void gemv_transposed_accumulate(const Matrix& w, std::span<const float> x,
                                std::span<float> y) {
  RT_REQUIRE(w.rows() == x.size(), "gemv_transposed: W.rows must equal x.size");
  RT_REQUIRE(w.cols() == y.size(), "gemv_transposed: W.cols must equal y.size");
  const std::size_t cols = w.cols();
  const float* base = w.data();
  // Row-major friendly order: scale each row of W by x[r] and accumulate.
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const float xv = x[r];
    if (xv == 0.0F) continue;
    const float* row = base + r * cols;
    for (std::size_t c = 0; c < cols; ++c) y[c] += xv * row[c];
  }
}

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  RT_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions must match");
  RT_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
             "gemm: output shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a(i, k)) * static_cast<double>(b(k, j));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  RT_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions must match");
  RT_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
             "gemm: output shape mismatch");
  c.fill(0.0F);
  constexpr std::size_t kBlock = 64;
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  const std::size_t kk = a.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t k0 = 0; k0 < kk; k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, kk);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t k = k0; k < k1; ++k) {
          const float aik = a(i, k);
          if (aik == 0.0F) continue;
          const float* brow = b.data() + k * n;
          float* crow = c.data() + i * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void outer_accumulate(float alpha, std::span<const float> u,
                      std::span<const float> v, Matrix& w) {
  RT_REQUIRE(w.rows() == u.size() && w.cols() == v.size(),
             "outer_accumulate: shape mismatch");
  for (std::size_t r = 0; r < u.size(); ++r) {
    const float scale = alpha * u[r];
    if (scale == 0.0F) continue;
    float* row = w.data() + r * w.cols();
    for (std::size_t c = 0; c < v.size(); ++c) row[c] += scale * v[c];
  }
}

}  // namespace rtmobile
