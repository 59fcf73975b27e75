// Exact oracles for the fused int8 matmat and its activation panel.
//
// With integer weights whose every row peaks at |w| = 127 and integer
// activations whose every stream peaks at |x| = 127, every weight and
// activation scale is exactly 1 and every code equals its value. The
// kernel's int32 sums are exact, so spmm_stripe_list_q8 must then equal
// the integer matvec exactly (float ==; every |sum| < 2^24 is
// representable). This pins the kernel's arithmetic independently of the
// panel layout or instruction it runs on. The transpose oracle checks the
// column-major activation panel against a scalar transpose, pad lanes
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sparse/block_mask.hpp"
#include "sparse/bspc.hpp"
#include "sparse/bspc_quant.hpp"
#include "tensor/matrix.hpp"
#include "tensor/precision.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

int random_code(Rng& rng) {
  return static_cast<int>(rng.next_below(255)) - 127;
}

struct IntegerCase {
  Matrix weights;  // masked integer weights
  BspcMatrix bspc;
};

/// A num_r x num_c blocked matrix whose (stripe, block) kept-column
/// counts cycle through `keep_counts` (clamped to the block width), with
/// `pruned_rows` removed. Row 0 is all +127 and row 1 all -127 over their
/// kept columns; every other active row gets one +-127 entry so each
/// row's max |w| is exactly 127.
IntegerCase make_integer_case(std::size_t rows, std::size_t cols,
                              std::size_t num_r, std::size_t num_c,
                              const std::vector<std::size_t>& keep_counts,
                              const std::vector<std::size_t>& pruned_rows,
                              std::uint64_t seed) {
  Rng rng(seed);
  BlockMask mask(rows, cols, num_r, num_c);
  std::size_t cycle = 0;
  for (std::size_t s = 0; s < num_r; ++s) {
    bool stripe_has_cols = false;
    for (std::size_t b = 0; b < num_c; ++b) {
      const std::size_t lo = mask.col_begin(b);
      const std::size_t width = mask.col_end(b) - lo;
      std::size_t keep = keep_counts[cycle++ % keep_counts.size()];
      if (keep > width) keep = width;
      // Every stripe keeps at least one column so every active row can
      // carry its +-127 peak.
      if (b + 1 == num_c && !stripe_has_cols && keep == 0) keep = 1;
      std::vector<std::uint32_t> all(width);
      for (std::size_t k = 0; k < width; ++k) {
        all[k] = static_cast<std::uint32_t>(lo + k);
      }
      rng.shuffle(all);
      all.resize(keep);
      std::sort(all.begin(), all.end());
      stripe_has_cols = stripe_has_cols || keep > 0;
      mask.set_block_cols(s, b, std::move(all));
    }
  }
  for (const std::size_t r : pruned_rows) mask.set_row_kept(r, false);

  Matrix w(rows, cols, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    bool peaked = false;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!mask.is_kept(r, c)) continue;
      int v = random_code(rng);
      if (r == 0) v = 127;
      if (r == 1) v = -127;
      if (!peaked) v = r % 2 == 0 ? 127 : -127;
      peaked = true;
      w(r, c) = static_cast<float>(v);
    }
  }
  BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
  return {std::move(w), std::move(bspc)};
}

/// Integer activations for `batch` streams: stream 0 is all +127, stream
/// 1 all -127 (the offset panel's byte extremes), every other stream
/// random with one +-127 peak so each stream's scale is exactly 1.
QuantizedActivations integer_activations(std::size_t batch, std::size_t dim,
                                         std::vector<float>& values,
                                         std::uint64_t seed) {
  Rng rng(seed);
  values.assign(batch * dim, 0.0F);
  QuantizedActivations q;
  q.resize(batch, dim);
  for (std::size_t b = 0; b < batch; ++b) {
    float* x = values.data() + b * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      x[c] = static_cast<float>(b == 0   ? 127
                                : b == 1 ? -127
                                         : random_code(rng));
    }
    x[b % dim] = b % 2 == 0 ? 127.0F : -127.0F;
    q.quantize_row(b, {x, dim});
  }
  q.transpose(batch);
  return q;
}

/// Runs spmm_stripe_list_q8 over `stripes` and checks every output
/// against the integer matvec: exact for rows of listed stripes, zero
/// elsewhere (including the trailing row past the batch).
void expect_exact(const IntegerCase& c, WeightPrecision precision,
                  std::size_t batch, const std::vector<std::uint32_t>& stripes,
                  const std::string& label) {
  const std::size_t rows = c.weights.rows();
  const std::size_t cols = c.weights.cols();
  const PackedQuantizedBspc packed =
      PackedQuantizedBspc::pack(c.bspc, precision);
  std::vector<float> x;
  const QuantizedActivations q =
      integer_activations(batch, cols, x, 1000 + batch);
  for (std::size_t b = 0; b < batch; ++b) ASSERT_EQ(q.scale[b], 1.0F);

  std::vector<bool> listed_row(rows, false);
  const auto row_ptr = c.bspc.stripe_row_ptr();
  for (const std::uint32_t s : stripes) {
    for (std::uint32_t i = row_ptr[s]; i < row_ptr[s + 1]; ++i) {
      listed_row[c.bspc.active_rows()[i]] = true;
    }
  }

  Matrix y(batch + 1, rows, 0.0F);
  std::vector<std::int32_t> scratch(packed.q8_scratch_words(batch));
  packed.spmm_stripe_list_q8(q, y, batch, stripes, scratch);
  for (std::size_t b = 0; b <= batch; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::int64_t want = 0;
      if (b < batch && listed_row[r]) {
        for (std::size_t k = 0; k < cols; ++k) {
          want += static_cast<std::int64_t>(c.weights(r, k)) *
                  static_cast<std::int64_t>(x[b * cols + k]);
        }
      }
      ASSERT_EQ(y(b, r), static_cast<float>(want))
          << label << " " << to_string(precision) << " batch " << batch
          << " stream " << b << " row " << r;
    }
  }
}

const std::vector<std::size_t> kBatches = {1, 7, 8, 9, 31, 32, 33, 64};

TEST(Int8MatmatOracle, MixedBlockWidthsEqualIntegerMatvec) {
  // 4 stripes x 3 blocks of 23-24 columns; kept counts cover every
  // residue mod 4, full blocks, single columns and empty blocks.
  const IntegerCase c = make_integer_case(
      24, 70, 4, 3, {23, 17, 10, 3, 0, 12, 1, 22, 5, 16, 24, 2}, {7, 19}, 5);
  ASSERT_EQ(c.bspc.num_stripes(), 4U);
  const std::vector<std::uint32_t> all = {0, 1, 2, 3};
  for (const WeightPrecision precision :
       {WeightPrecision::kInt8PerRow, WeightPrecision::kInt8PerTensor}) {
    for (const std::size_t batch : kBatches) {
      expect_exact(c, precision, batch, all, "all stripes");
      expect_exact(c, precision, batch, {2, 0}, "stripes {2,0}");
      expect_exact(c, precision, batch, {3}, "stripe {3}");
    }
  }
}

TEST(Int8MatmatOracle, FullWidthBlocksEqualIntegerMatvec) {
  // One block spanning 1024 columns: the widest sum the serving model
  // produces. |sum| <= 1024 * 127^2 < 2^24 stays exact in float.
  for (const std::size_t keep : {1024U, 1021U, 1018U, 1015U}) {
    const IntegerCase c =
        make_integer_case(8, 1024, 2, 1, {keep}, {}, 40 + keep);
    for (const std::size_t batch : {1U, 9U, 32U, 33U}) {
      expect_exact(c, WeightPrecision::kInt8PerRow, batch, {0, 1},
                   "keep " + std::to_string(keep));
      expect_exact(c, WeightPrecision::kInt8PerRow, batch, {1},
                   "keep " + std::to_string(keep) + " stripe {1}");
    }
  }
}

TEST(Int8MatmatOracle, TransposeEqualsScalarTransposeWithZeroPad) {
  // One object across every shape: the grow-only tcodes buffer keeps
  // earlier, wider panels' codes, which must not leak into pad lanes.
  QuantizedActivations q;
  Rng rng(77);
  for (const std::size_t dim : {1U, 10U, 15U, 16U, 17U, 153U, 1024U}) {
    for (std::size_t batch = 64; batch >= 1; --batch) {
      q.resize(batch, dim);
      for (std::size_t i = 0; i < batch * dim; ++i) {
        q.codes[i] = static_cast<std::int8_t>(random_code(rng));
      }
      q.transpose(batch);
      const std::size_t padded = (batch + 7) & ~std::size_t{7};
      ASSERT_EQ(q.padded_batch, padded);
      for (std::size_t c = 0; c < dim; ++c) {
        const std::int8_t* col = q.col(c);
        for (std::size_t b = 0; b < padded; ++b) {
          const std::int8_t want = b < batch ? q.codes[b * dim + c] : 0;
          ASSERT_EQ(col[b], want)
              << "batch " << batch << " dim " << dim << " col " << c
              << " lane " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rtmobile
