// Elementwise vector operations and activations used by the RNN cells,
// the training stack, and the speech front end.
//
// All functions take spans (I.13) and require matching sizes. At -O3 GCC
// vectorizes only the elementwise arithmetic (add, sub, mul, axpy, scale,
// and the last pass of softmax/log_softmax). sigmoid, tanh and the
// softmax exponentials call scalar libm; the double-accumulated
// reductions (dot, norm2, sum) and max scans stay scalar because
// vectorizing them would reorder float operations. The compiled
// inference path has its own vectorized gate activations
// (compiler/gru_gates.hpp); these libm versions are the training
// reference it is tested against.
#pragma once

#include <span>

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace rtmobile {

/// Numerically-stable logistic sigmoid.
[[nodiscard]] float sigmoid(float x);

/// Derivative of sigmoid expressed via its output y = sigmoid(x).
[[nodiscard]] float sigmoid_grad_from_output(float y);

/// Derivative of tanh expressed via its output y = tanh(x).
[[nodiscard]] float tanh_grad_from_output(float y);

/// out[i] = sigmoid(in[i])
void sigmoid_inplace(std::span<float> values);

/// out[i] = tanh(in[i])
void tanh_inplace(std::span<float> values);

/// out[i] = a[i] + b[i]
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// a[i] += b[i]
void add_inplace(std::span<float> a, std::span<const float> b);

/// out[i] = a[i] - b[i]
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out[i] = a[i] * b[i] (Hadamard product)
void mul(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// a[i] *= b[i]
void mul_inplace(std::span<float> a, std::span<const float> b);

/// y[i] += alpha * x[i]
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// values[i] *= alpha
void scale_inplace(std::span<float> values, float alpha);

/// Dot product (accumulated in double for stability).
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Euclidean norm (accumulated in double).
[[nodiscard]] double norm2(std::span<const float> values);

/// Sum of elements (accumulated in double).
[[nodiscard]] double sum(std::span<const float> values);

/// Index of the maximum element. Span must be non-empty.
[[nodiscard]] std::size_t argmax(std::span<const float> values);

/// In-place softmax with max-subtraction for stability.
void softmax_inplace(std::span<float> values);

/// log(softmax(values)) written into `out` (stable log-sum-exp).
void log_softmax(std::span<const float> values, std::span<float> out);

/// Fills with N(0, stddev) draws.
void fill_normal(std::span<float> values, Rng& rng, float stddev);

/// Fills with U(-bound, bound) draws.
void fill_uniform(std::span<float> values, Rng& rng, float bound);

/// Xavier/Glorot uniform init for a weight matrix (fan_in, fan_out derived
/// from the matrix shape: rows = outputs, cols = inputs).
void xavier_init(Matrix& weights, Rng& rng);

/// Orthogonal-ish init used for recurrent matrices: Xavier followed by row
/// normalization, which keeps the spectral radius near 1 for stable BPTT.
void recurrent_init(Matrix& weights, Rng& rng);

/// Max |a[i] - b[i]| over the spans (sizes must match).
[[nodiscard]] float max_abs_diff(std::span<const float> a,
                                 std::span<const float> b);

}  // namespace rtmobile
