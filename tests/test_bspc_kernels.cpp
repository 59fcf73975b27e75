// Exact oracles for the fp32 matvec kernels: BspcMatrix's LRE kernels
// (spmv_stripe_list per stream, spmm_stripe_list fused) and the dense
// gemv.
//
// Every output of these kernels is promised to be one scalar dot product
// accumulated as acc = 0; acc = acc + w[k] * x[k] for k ascending (a
// separate multiply and add), then added once per block to y. The oracle
// below is that loop, written out plainly, and every comparison is on
// the float's bit pattern (so -0.0 differs from +0.0 and NaN equals
// itself). Weights and inputs span many binades, so any reordered or
// fused (FMA) sum shows in the low bits. The shapes cover every lane
// remainder: active rows per stripe 0..7 mod 8, kept columns 1..17 per
// block, and batches 1..9, 15..17, 23, 32, 33 and 64 (every split of
// the fused kernel's groups of four, two and one streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sparse/block_mask.hpp"
#include "sparse/bspc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

std::uint32_t bits(float v) {
  std::uint32_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// A value in +-[2^-12, 2^12), exactly 0 or -0 one time in 16 each.
float spread_value(Rng& rng) {
  const std::uint64_t pick = rng.next_below(16);
  if (pick == 0) return 0.0F;
  if (pick == 1) return -0.0F;
  const float mantissa = rng.uniform(1.0F, 2.0F);
  const int exponent = static_cast<int>(rng.next_below(24)) - 12;
  const float v = std::ldexp(mantissa, exponent);
  return rng.next_below(2) == 0 ? v : -v;
}

/// Rows per stripe: 24. Stripe s keeps kActive[s] rows, which covers
/// every residue mod 8 plus an empty stripe and a full one.
constexpr std::size_t kStripeRows = 24;
const std::vector<std::size_t> kActive = {16, 9, 2, 19, 4, 13, 22, 7, 0, 24};

struct Case {
  Matrix weights;  // masked
  BspcMatrix bspc;
};

/// kActive.size() stripes x 3 blocks of 20 columns; (stripe, block) kept
/// column counts cycle through 1..17.
Case make_case(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_r = kActive.size();
  const std::size_t rows = num_r * kStripeRows;
  const std::size_t num_c = 3;
  const std::size_t cols = num_c * 20;
  BlockMask mask(rows, cols, num_r, num_c);
  std::size_t cycle = 0;
  for (std::size_t s = 0; s < num_r; ++s) {
    for (std::size_t b = 0; b < num_c; ++b) {
      const std::size_t lo = mask.col_begin(b);
      std::vector<std::uint32_t> all(mask.col_end(b) - lo);
      for (std::size_t k = 0; k < all.size(); ++k) {
        all[k] = static_cast<std::uint32_t>(lo + k);
      }
      rng.shuffle(all);
      all.resize(1 + cycle++ % 17);
      std::sort(all.begin(), all.end());
      mask.set_block_cols(s, b, std::move(all));
    }
    std::vector<std::size_t> stripe(kStripeRows);
    for (std::size_t i = 0; i < kStripeRows; ++i) {
      stripe[i] = mask.row_begin(s) + i;
    }
    rng.shuffle(stripe);
    for (std::size_t i = kActive[s]; i < kStripeRows; ++i) {
      mask.set_row_kept(stripe[i], false);
    }
  }
  Matrix w(rows, cols, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (mask.is_kept(r, c)) w(r, c) = spread_value(rng);
    }
  }
  BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
  return {std::move(w), std::move(bspc)};
}

Matrix spread_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols, 0.0F);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = spread_value(rng);
  }
  return m;
}

/// The scalar kernel contract: for each listed stripe, each block, each
/// active row, one ascending mul-then-add sum added to y.
void oracle_accumulate(const BspcMatrix& a, std::span<const float> x,
                       std::span<float> y,
                       const std::vector<std::uint32_t>& stripes) {
  const auto row_ptr = a.stripe_row_ptr();
  const auto block_ptr = a.stripe_block_ptr();
  for (const std::uint32_t s : stripes) {
    const std::size_t n_rows = row_ptr[s + 1] - row_ptr[s];
    for (std::uint32_t bi = block_ptr[s]; bi < block_ptr[s + 1]; ++bi) {
      const BspcMatrix::BlockRef& ref = a.blocks()[bi];
      for (std::size_t i = 0; i < n_rows; ++i) {
        const float* v = a.values().data() + ref.value_offset +
                         i * ref.col_count;
        float acc = 0.0F;
        for (std::uint32_t k = 0; k < ref.col_count; ++k) {
          const float product = v[k] * x[a.col_pool()[ref.col_offset + k]];
          acc = acc + product;
        }
        const std::size_t r = a.active_rows()[row_ptr[s] + i];
        y[r] = y[r] + acc;
      }
    }
  }
}

void expect_same_bits(const Matrix& want, const Matrix& got,
                      const std::string& label) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (std::size_t b = 0; b < want.rows(); ++b) {
    for (std::size_t r = 0; r < want.cols(); ++r) {
      ASSERT_EQ(bits(want(b, r)), bits(got(b, r)))
          << label << " stream " << b << " row " << r << ": want "
          << want(b, r) << " got " << got(b, r);
    }
  }
}

const std::vector<std::vector<std::uint32_t>> kStripeLists = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},  // all, in order
    {9, 3, 7, 0, 8, 5, 1, 6, 2, 4},  // all, reordered
    {6, 1},                          // partial
    {8},                             // only the empty stripe
    {2, 9, 4},                       // partial, reordered
};

std::string list_label(const std::vector<std::uint32_t>& stripes) {
  std::string out = "stripes {";
  for (const std::uint32_t s : stripes) out += std::to_string(s) + ",";
  return out + "}";
}

TEST(BspcKernelOracle, ShapesCoverEveryLaneRemainder) {
  const Case c = make_case(3);
  ASSERT_EQ(c.bspc.num_stripes(), kActive.size());
  std::vector<bool> row_residue(8, false);
  std::vector<bool> col_count(18, false);
  for (std::size_t s = 0; s < kActive.size(); ++s) {
    ASSERT_EQ(c.bspc.stripe_rows(s).size(), kActive[s]);
    row_residue[kActive[s] % 8] = true;
  }
  for (const BspcMatrix::BlockRef& ref : c.bspc.blocks()) {
    col_count[ref.col_count] = true;
  }
  for (std::size_t m = 0; m < 8; ++m) EXPECT_TRUE(row_residue[m]) << m;
  for (std::size_t k = 1; k <= 17; ++k) EXPECT_TRUE(col_count[k]) << k;
}

TEST(BspcKernelOracle, SpmvStripeListEqualsScalarLoopBitwise) {
  const Case c = make_case(11);
  Rng rng(12);
  for (const auto& stripes : kStripeLists) {
    for (const bool use_lre : {true, false}) {
      const Matrix x = spread_matrix(1, c.bspc.cols(), rng);
      // y accumulates: start from arbitrary values, -0.0 included.
      Matrix want = spread_matrix(1, c.bspc.rows(), rng);
      Matrix got = want;
      oracle_accumulate(c.bspc, x.row(0), want.row(0), stripes);
      // Exactly max_block_cols() floats of scratch, poisoned first.
      std::vector<float> gather(use_lre ? c.bspc.max_block_cols() : 0,
                                std::numeric_limits<float>::quiet_NaN());
      c.bspc.spmv_stripe_list(x.row(0), got.row(0), stripes, use_lre,
                              gather);
      expect_same_bits(want, got,
                       list_label(stripes) + (use_lre ? " lre" : " no-lre"));
    }
  }
}

TEST(BspcKernelOracle, SpmmStripeListEqualsScalarLoopPerStreamBitwise) {
  const Case c = make_case(21);
  Rng rng(22);
  std::vector<std::size_t> batches;
  for (std::size_t b = 1; b <= 9; ++b) batches.push_back(b);
  batches.insert(batches.end(), {15, 16, 17, 23, 32, 33, 64});
  for (const std::size_t batch : batches) {
    for (const auto& stripes : kStripeLists) {
      for (const bool use_lre : {true, false}) {
        // One trailing row past the batch in X and Y must be ignored.
        const Matrix x = spread_matrix(batch + 1, c.bspc.cols(), rng);
        Matrix want = spread_matrix(batch + 1, c.bspc.rows(), rng);
        Matrix got = want;
        for (std::size_t b = 0; b < batch; ++b) {
          oracle_accumulate(c.bspc, x.row(b), want.row(b), stripes);
        }
        std::vector<float> gather(
            use_lre ? batch * c.bspc.max_block_cols() : 0,
            std::numeric_limits<float>::quiet_NaN());
        c.bspc.spmm_stripe_list(x, got, batch, stripes, use_lre, gather);
        expect_same_bits(want, got,
                         "batch " + std::to_string(batch) + " " +
                             list_label(stripes) +
                             (use_lre ? " lre" : " no-lre"));
      }
    }
  }
}

TEST(BspcKernelOracle, SpmvOverWideBlocksEqualsScalarLoopBitwise) {
  // One stripe-wide block per stripe, 1024 columns with the serving
  // model's 25% keep: many full 8x8 sub-tiles plus every tail length.
  Rng rng(31);
  for (const std::size_t keep : {256U, 257U, 259U, 262U, 263U}) {
    BlockMask mask(16, 1024, 2, 1);
    for (std::size_t s = 0; s < 2; ++s) {
      std::vector<std::uint32_t> all(1024);
      for (std::size_t k = 0; k < all.size(); ++k) {
        all[k] = static_cast<std::uint32_t>(k);
      }
      rng.shuffle(all);
      all.resize(keep);
      std::sort(all.begin(), all.end());
      mask.set_block_cols(s, 0, std::move(all));
    }
    mask.set_row_kept(3, false);
    Matrix w(16, 1024, 0.0F);
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t c = 0; c < 1024; ++c) {
        if (mask.is_kept(r, c)) w(r, c) = spread_value(rng);
      }
    }
    const BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
    for (const std::size_t batch : {1U, 8U, 13U}) {
      const Matrix x = spread_matrix(batch, 1024, rng);
      Matrix want(batch, 16, 0.0F);
      Matrix got(batch, 16, 0.0F);
      for (std::size_t b = 0; b < batch; ++b) {
        oracle_accumulate(bspc, x.row(b), want.row(b), {1, 0});
      }
      std::vector<float> gather(batch * bspc.max_block_cols());
      bspc.spmm_stripe_list(x, got, batch, std::vector<std::uint32_t>{1, 0},
                            true, gather);
      expect_same_bits(want, got, "keep " + std::to_string(keep));
      Matrix single(1, 16, 0.0F);
      bspc.spmv_stripe_list(x.row(batch - 1), single.row(0),
                            std::vector<std::uint32_t>{1, 0}, true, gather);
      for (std::size_t r = 0; r < 16; ++r) {
        ASSERT_EQ(bits(single(0, r)), bits(want(batch - 1, r))) << r;
      }
    }
  }
}

TEST(GemvOracle, EqualsScalarLoopBitwise) {
  Rng rng(41);
  std::vector<std::size_t> row_counts;
  for (std::size_t r = 1; r <= 17; ++r) row_counts.push_back(r);
  row_counts.push_back(39);
  for (const std::size_t rows : row_counts) {
    for (const std::size_t cols :
         {1U, 2U, 7U, 8U, 9U, 15U, 16U, 17U, 153U, 1024U}) {
      const Matrix w = spread_matrix(rows, cols, rng);
      const Matrix x = spread_matrix(1, cols, rng);
      Matrix got = spread_matrix(1, rows, rng);  // fully overwritten
      gemv(w, x.row(0), got.row(0));
      for (std::size_t r = 0; r < rows; ++r) {
        float acc = 0.0F;
        for (std::size_t c = 0; c < cols; ++c) {
          const float product = w(r, c) * x(0, c);
          acc = acc + product;
        }
        ASSERT_EQ(bits(acc), bits(got(0, r)))
            << rows << "x" << cols << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace rtmobile
