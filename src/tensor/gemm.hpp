// Dense GEMV/GEMM reference kernels.
//
// These are the dense baselines that the compiled sparse executors are
// validated against and benchmarked relative to. The blocked variants are
// the "dense baseline" used in Table II / Figure 4.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace rtmobile {

/// y = W x (naive row-major loop). Reference implementation for tests.
void gemv_naive(const Matrix& w, std::span<const float> x,
                std::span<float> y);

/// y = W x, the production dense kernel: eight rows per AVX2 register
/// when built with AVX2, else 4-way row unrolling. Every row keeps the
/// scalar left-to-right sum, so both builds return the same bits.
void gemv(const Matrix& w, std::span<const float> x, std::span<float> y);

/// y += W x (accumulating variant used by the RNN cells).
void gemv_accumulate(const Matrix& w, std::span<const float> x,
                     std::span<float> y);

/// y = W^T x without materializing the transpose (used in BPTT).
void gemv_transposed(const Matrix& w, std::span<const float> x,
                     std::span<float> y);

/// y += W^T x.
void gemv_transposed_accumulate(const Matrix& w, std::span<const float> x,
                                std::span<float> y);

/// C = A B (naive). Reference for tests.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A B with cache blocking.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// W += alpha * outer(u, v): rank-1 update used for weight gradients.
void outer_accumulate(float alpha, std::span<const float> u,
                      std::span<const float> v, Matrix& w);

}  // namespace rtmobile
