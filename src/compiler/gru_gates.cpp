#include "compiler/gru_gates.hpp"

#include "util/check.hpp"

namespace rtmobile {

// Each loop writes one row, so GCC's runtime alias check per pointer pair
// stays within its versioning budget and every loop vectorizes.

void gru_update_reset_row(std::span<float> z, std::span<const float> u_z,
                          std::span<const float> b_z, std::span<float> r,
                          std::span<const float> u_r,
                          std::span<const float> b_r,
                          std::span<const float> h_prev) {
  const std::size_t n = z.size();
  RT_ASSERT(u_z.size() == n && b_z.size() == n && r.size() == n &&
                u_r.size() == n && b_r.size() == n && h_prev.size() == n,
            "gru_update_reset_row: gate rows must be hidden-sized");
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = gate_sigmoid(z[i] + u_z[i] + b_z[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = gate_sigmoid(r[i] + u_r[i] + b_r[i]) * h_prev[i];
  }
}

void gru_candidate_blend_row(std::span<const float> z,
                             std::span<const float> w_h,
                             std::span<const float> u_h,
                             std::span<const float> b_h,
                             std::span<const float> h_prev,
                             std::span<float> h_out) {
  const std::size_t n = z.size();
  RT_ASSERT(w_h.size() == n && u_h.size() == n && b_h.size() == n &&
                h_prev.size() == n && h_out.size() == n,
            "gru_candidate_blend_row: gate rows must be hidden-sized");
  for (std::size_t i = 0; i < n; ++i) {
    const float candidate = gate_tanh(w_h[i] + u_h[i] + b_h[i]);
    h_out[i] = (1.0F - z[i]) * h_prev[i] + z[i] * candidate;
  }
}

}  // namespace rtmobile
