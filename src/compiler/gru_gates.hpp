// The GRU gate epilogue shared by every compiled execution path.
//
// A compiled GRU step is six matvecs (or matmats) followed by elementwise
// gate work. The compiled model's one step spine (step_batch, infer() and
// run_recurrence at every width) hands each stream row to the two
// out-of-line kernels below, and so does any per-vector recurrence built
// on LayerPlan::execute: both run the same machine code per row, so a
// batched step is bit-identical to a per-stream one by construction
// rather than by keeping copies in sync.
//
// The activations are branch-free rational approximations written as
// plain arithmetic so the row loops vectorize at the baseline ISA; libm's
// scalar tanhf/expf calls do not. The training reference (rnn/gru_cell,
// tensor/ops sigmoid/tanh_inplace) stays on libm, so tests still compare
// the compiled model against an independent implementation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>

namespace rtmobile {

/// tanh as Eigen's ptanh_float: a [13/6] odd/even rational polynomial on
/// the input clamped to +-7.9053, where the quotient rounds to +-1.
/// Absolute error <= 1e-6 against std::tanh over the reals; +-inf map to
/// +-1 and NaN propagates.
inline float gate_tanh(float x) {
  // Clamp on the bit pattern: for non-negative floats integer order is
  // float order, and an integer min vectorizes where GCC will not
  // if-convert a float compare (it may trap under -ftrapping-math). A
  // NaN keeps a quiet-NaN exponent so it reaches the result.
  constexpr std::int32_t kSignBit = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kInfBits = 0x7F800000;
  constexpr std::int32_t kClampBits =
      std::bit_cast<std::int32_t>(7.90531110763549805F);
  const std::int32_t bits = std::bit_cast<std::int32_t>(x);
  const std::int32_t magnitude = bits & ~kSignBit;
  const std::int32_t nan = -static_cast<std::int32_t>(magnitude > kInfBits);
  const float c = std::bit_cast<float>(std::min(magnitude, kClampBits) |
                                       (nan & 0x7FC00000) | (bits & kSignBit));
  const float c2 = c * c;
  float p = c2 * -2.76076847742355e-16F + 2.00018790482477e-13F;
  p = c2 * p + -8.60467152213735e-11F;
  p = c2 * p + 5.12229709037114e-08F;
  p = c2 * p + 1.48572235717979e-05F;
  p = c2 * p + 6.37261928875436e-04F;
  p = c2 * p + 4.89352455891786e-03F;
  p = c * p;
  float q = c2 * 1.19825839466702e-06F + 1.18534705686654e-04F;
  q = c2 * q + 2.26843463243900e-03F;
  q = c2 * q + 4.89352518554385e-03F;
  return p / q;
}

/// Logistic sigmoid through the identity sigmoid(x) = (1 + tanh(x/2)) / 2,
/// so it inherits gate_tanh's error bound (halved) and its limits: 0 and
/// 1 at -inf and +inf, NaN propagates.
inline float gate_sigmoid(float x) {
  return 0.5F + 0.5F * gate_tanh(0.5F * x);
}

/// First half of one stream's GRU gate epilogue, after the W_z/U_z and
/// W_r/U_r products are in:
///   z[i] = sigmoid(z[i] + u_z[i] + b_z[i])      (z holds W_z x on entry)
///   r[i] = sigmoid(r[i] + u_r[i] + b_r[i]) * h_prev[i]
///                                               (r holds W_r x on entry,
///                                                r . h_prev on exit)
/// Every span has the hidden size.
void gru_update_reset_row(std::span<float> z, std::span<const float> u_z,
                          std::span<const float> b_z, std::span<float> r,
                          std::span<const float> u_r,
                          std::span<const float> b_r,
                          std::span<const float> h_prev);

/// Second half, after W_h x and U_h (r . h_prev) are in:
///   h~[i]     = tanh(w_h[i] + u_h[i] + b_h[i])
///   h_out[i]  = (1 - z[i]) h_prev[i] + z[i] h~[i]
/// Every span has the hidden size.
void gru_candidate_blend_row(std::span<const float> z,
                             std::span<const float> w_h,
                             std::span<const float> u_h,
                             std::span<const float> b_h,
                             std::span<const float> h_prev,
                             std::span<float> h_out);

}  // namespace rtmobile
