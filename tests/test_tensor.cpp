// Unit tests for src/tensor: containers, elementwise ops, GEMM/GEMV, I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/io.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/precision.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  fill_normal(m.span(), rng, 1.0F);
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  fill_normal(v.span(), rng, 1.0F);
  return v;
}

// ------------------------------------------------------------ containers
TEST(Matrix, ShapeAndAccess) {
  Matrix m(3, 4, 1.5F);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  EXPECT_EQ(m.size(), 12U);
  m(1, 2) = 7.0F;
  EXPECT_FLOAT_EQ(m.at(1, 2), 7.0F);
  EXPECT_THROW(static_cast<void>(m.at(3, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(m.at(0, 4)), std::invalid_argument);
}

TEST(Matrix, RowViewAliasesStorage) {
  Matrix m(2, 3, 0.0F);
  auto row = m.row(1);
  row[2] = 9.0F;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0F);
  EXPECT_THROW(static_cast<void>(m.row(2)), std::invalid_argument);
}

TEST(Matrix, InitializerSizeChecked) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix m = random_matrix(5, 7, 1);
  const Matrix tt = m.transposed().transposed();
  EXPECT_EQ(m, tt);
  EXPECT_FLOAT_EQ(m(2, 6), m.transposed()(6, 2));
}

TEST(Matrix, CountNonzero) {
  Matrix m(2, 2, 0.0F);
  m(0, 0) = 0.5F;
  m(1, 1) = -0.001F;
  EXPECT_EQ(m.count_nonzero(), 2U);
  EXPECT_EQ(m.count_nonzero(0.01F), 1U);
}

TEST(Matrix, BufferIsCacheLineAligned) {
  const Matrix m(17, 13);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes, 0U);
  const Vector v(33);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0U);
}

// ------------------------------------------------------------------- ops
TEST(Ops, SigmoidMatchesClosedForm) {
  EXPECT_NEAR(sigmoid(0.0F), 0.5F, 1e-6F);
  EXPECT_NEAR(sigmoid(2.0F), 1.0F / (1.0F + std::exp(-2.0F)), 1e-6F);
  // Extremes must not overflow.
  EXPECT_NEAR(sigmoid(100.0F), 1.0F, 1e-6F);
  EXPECT_NEAR(sigmoid(-100.0F), 0.0F, 1e-6F);
}

TEST(Ops, ActivationGradsFromOutputs) {
  const float y = sigmoid(0.7F);
  EXPECT_NEAR(sigmoid_grad_from_output(y), y * (1 - y), 1e-7F);
  const float t = std::tanh(0.7F);
  EXPECT_NEAR(tanh_grad_from_output(t), 1 - t * t, 1e-7F);
}

TEST(Ops, ElementwiseAndAxpy) {
  Vector a(std::vector<float>{1, 2, 3});
  const Vector b(std::vector<float>{4, 5, 6});
  Vector out(3);
  add(a.span(), b.span(), out.span());
  EXPECT_FLOAT_EQ(out[2], 9.0F);
  sub(a.span(), b.span(), out.span());
  EXPECT_FLOAT_EQ(out[0], -3.0F);
  mul(a.span(), b.span(), out.span());
  EXPECT_FLOAT_EQ(out[1], 10.0F);
  axpy(2.0F, b.span(), a.span());
  EXPECT_FLOAT_EQ(a[0], 9.0F);
  Vector c(std::vector<float>{1, 2});
  EXPECT_THROW(add(a.span(), c.span(), out.span()), std::invalid_argument);
}

TEST(Ops, DotNormSumArgmax) {
  const Vector a(std::vector<float>{3, 4});
  EXPECT_DOUBLE_EQ(norm2(a.span()), 5.0);
  EXPECT_DOUBLE_EQ(dot(a.span(), a.span()), 25.0);
  EXPECT_DOUBLE_EQ(sum(a.span()), 7.0);
  const Vector b(std::vector<float>{1, 9, 2});
  EXPECT_EQ(argmax(b.span()), 1U);
  EXPECT_THROW(static_cast<void>(argmax(std::span<const float>{})),
               std::invalid_argument);
}

TEST(Ops, SoftmaxIsNormalizedAndStable) {
  Vector v(std::vector<float>{1000.0F, 1000.0F, 1000.0F});
  softmax_inplace(v.span());
  EXPECT_NEAR(v[0], 1.0F / 3.0F, 1e-5F);
  EXPECT_NEAR(static_cast<float>(sum(v.span())), 1.0F, 1e-5F);
}

TEST(Ops, LogSoftmaxMatchesSoftmax) {
  Vector v(std::vector<float>{0.3F, -1.2F, 2.0F});
  Vector ls(3);
  log_softmax(v.span(), ls.span());
  Vector sm = v;
  softmax_inplace(sm.span());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::exp(ls[i]), sm[i], 1e-5F);
  }
}

TEST(Ops, XavierInitWithinBound) {
  Rng rng(5);
  Matrix w(64, 32);
  xavier_init(w, rng);
  const float bound = std::sqrt(6.0F / (64 + 32));
  for (const float x : w.span()) {
    EXPECT_LE(std::fabs(x), bound);
  }
}

TEST(Ops, RecurrentInitRowsNearUnitNorm) {
  Rng rng(6);
  Matrix u(32, 32);
  recurrent_init(u, rng);
  for (std::size_t r = 0; r < u.rows(); ++r) {
    EXPECT_NEAR(norm2(u.row(r)), 0.9, 1e-4);
  }
}

TEST(Ops, MaxAbsDiff) {
  const Vector a(std::vector<float>{1, 2, 3});
  const Vector b(std::vector<float>{1, 2.5F, 2});
  EXPECT_FLOAT_EQ(max_abs_diff(a.span(), b.span()), 1.0F);
}

// ------------------------------------------------------------------ gemm
TEST(Gemm, GemvMatchesNaive) {
  const Matrix w = random_matrix(37, 53, 2);
  const Vector x = random_vector(53, 3);
  Vector expected(37);
  Vector actual(37);
  gemv_naive(w, x.span(), expected.span());
  gemv(w, x.span(), actual.span());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F);
}

TEST(Gemm, GemvAccumulateAddsOnTop) {
  const Matrix w = random_matrix(8, 8, 4);
  const Vector x = random_vector(8, 5);
  Vector y(8, 1.0F);
  Vector base(8);
  gemv(w, x.span(), base.span());
  gemv_accumulate(w, x.span(), y.span());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(y[i], base[i] + 1.0F, 1e-5F);
  }
}

TEST(Gemm, TransposedMatchesExplicitTranspose) {
  const Matrix w = random_matrix(19, 11, 6);
  const Vector x = random_vector(19, 7);
  Vector expected(11);
  Vector actual(11);
  gemv_naive(w.transposed(), x.span(), expected.span());
  gemv_transposed(w, x.span(), actual.span());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F);
}

TEST(Gemm, ShapeValidation) {
  const Matrix w(3, 4);
  Vector x(5);
  Vector y(3);
  EXPECT_THROW(gemv(w, x.span(), y.span()), std::invalid_argument);
  Vector x2(4);
  Vector y2(2);
  EXPECT_THROW(gemv(w, x2.span(), y2.span()), std::invalid_argument);
}

TEST(Gemm, BlockedGemmMatchesNaive) {
  const Matrix a = random_matrix(33, 65, 8);
  const Matrix b = random_matrix(65, 41, 9);
  Matrix expected(33, 41);
  Matrix actual(33, 41);
  gemm_naive(a, b, expected);
  gemm(a, b, actual);
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-3F);
}

TEST(Gemm, OuterAccumulate) {
  Matrix w(2, 3, 0.0F);
  const Vector u(std::vector<float>{1, 2});
  const Vector v(std::vector<float>{3, 4, 5});
  outer_accumulate(2.0F, u.span(), v.span(), w);
  EXPECT_FLOAT_EQ(w(1, 2), 20.0F);
  EXPECT_FLOAT_EQ(w(0, 0), 6.0F);
}

// -------------------------------------------------------------------- io
TEST(Io, MatrixRoundTrip) {
  const Matrix m = random_matrix(13, 7, 10);
  std::stringstream stream;
  write_matrix(stream, m);
  const Matrix back = read_matrix(stream);
  EXPECT_EQ(m, back);
}

TEST(Io, VectorRoundTrip) {
  const Vector v = random_vector(29, 11);
  std::stringstream stream;
  write_vector(stream, v);
  const Vector back = read_vector(stream);
  EXPECT_EQ(v, back);
}

TEST(Io, RejectsBadMagicAndTruncation) {
  std::stringstream bad("XXXXgarbage");
  EXPECT_THROW(read_matrix(bad), std::runtime_error);

  const Matrix m = random_matrix(4, 4, 12);
  std::stringstream stream;
  write_matrix(stream, m);
  std::string payload = stream.str();
  payload.resize(payload.size() / 2);
  std::stringstream truncated(payload);
  EXPECT_THROW(read_matrix(truncated), std::runtime_error);
}

// ------------------------------------------------- activation quantizer
// Scalar reference quantizer: a float max, then clamp the scaled float
// before rounding. The vectorized quantize_row (an integer max over bit
// patterns, round before clamp) must reproduce its codes and scales bit
// for bit.
void reference_quantize_row(std::span<const float> x,
                            std::vector<std::int8_t>& codes, float& scale) {
  float max_abs = 0.0F;
  for (const float v : x) max_abs = std::max(max_abs, std::fabs(v));
  scale = max_abs / kInt8CodeLimit;
  codes.assign(x.size(), std::int8_t{0});
  if (scale == 0.0F) return;
  const float inv = kInt8CodeLimit / max_abs;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v =
        std::min(std::max(x[i] * inv, -kInt8CodeLimit), kInt8CodeLimit);
    codes[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(v + std::copysign(0.5F, v)));
  }
}

void expect_quantize_matches_reference(const std::vector<float>& x,
                                       const std::string& label) {
  QuantizedActivations q;
  q.resize(3, x.size());
  q.quantize_row(1, x);  // a middle row: offsets must not leak
  std::vector<std::int8_t> want;
  float want_scale = 0.0F;
  reference_quantize_row(x, want, want_scale);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(q.scale[1]),
            std::bit_cast<std::uint32_t>(want_scale))
      << label;
  const std::int8_t* got = q.row(1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " element " << i << " x=" << x[i];
  }
}

TEST(QuantizeRow, RandomRowsMatchReferenceBitwise) {
  for (const std::size_t n : {1U, 7U, 39U, 153U, 1024U, 1031U}) {
    for (const float stddev : {1e-3F, 1.0F, 250.0F}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 131 + n);
        std::vector<float> x(n);
        fill_normal(x, rng, stddev);
        expect_quantize_matches_reference(
            x, "n=" + std::to_string(n) + " sd=" + std::to_string(stddev) +
                   " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(QuantizeRow, ZeroRowGivesZeroScaleAndCodes) {
  const std::vector<float> zeros(1024, 0.0F);
  expect_quantize_matches_reference(zeros, "zeros");
  QuantizedActivations q;
  q.resize(1, zeros.size());
  q.quantize_row(0, zeros);
  EXPECT_EQ(q.scale[0], 0.0F);
  for (std::size_t i = 0; i < zeros.size(); ++i) EXPECT_EQ(q.row(0)[i], 0);
}

TEST(QuantizeRow, SingleSignedMaxMatchesReference) {
  for (const float peak : {3.5F, -3.5F, 1e-20F, -1e30F}) {
    for (const std::size_t at : {0U, 5U, 1023U}) {
      Rng rng(at + 17);
      std::vector<float> x(1024);
      fill_uniform(x, rng, std::fabs(peak) * 0.5F);
      x[at] = peak;
      expect_quantize_matches_reference(
          x, "peak=" + std::to_string(peak) + " at=" + std::to_string(at));
      // The lone maximum lands exactly on the grid's end.
      QuantizedActivations q;
      q.resize(1, x.size());
      q.quantize_row(0, x);
      EXPECT_EQ(q.row(0)[at], peak > 0.0F ? 127 : -127);
    }
  }
}

TEST(QuantizeRow, HalfCodeTiesRoundAwayFromZero) {
  // With max|x| = 127 * 2^k the reciprocal scale is an exact power of
  // two, so x = (k + 0.5) * scale lands exactly on a half-code tie.
  for (const float scale : {1.0F, 0.125F, 4.0F}) {
    std::vector<float> x;
    for (int k = -127; k <= 126; ++k) {
      x.push_back((static_cast<float>(k) + 0.5F) * scale);
    }
    x.push_back(127.0F * scale);
    expect_quantize_matches_reference(x, "scale=" + std::to_string(scale));
    QuantizedActivations q;
    q.resize(1, x.size());
    q.quantize_row(0, x);
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
      const int k = static_cast<int>(i) - 127;
      EXPECT_EQ(q.row(0)[i], k >= 0 ? k + 1 : k) << "tie " << k << ".5";
    }
  }
}

}  // namespace
}  // namespace rtmobile
