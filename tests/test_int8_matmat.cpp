// Exact oracles for the fused int8 matmat and its activation panel.
//
// With integer weights whose every row peaks at |w| = 127 and integer
// activations whose every stream peaks at |x| = 127, every weight and
// activation scale is exactly 1 and every code equals its value. The
// kernel's int32 sums are exact, so spmm_stripe_list_q8 must then equal
// the integer matvec exactly (float ==; every |sum| < 2^24 is
// representable). This pins the kernel's arithmetic independently of the
// panel layout or instruction it runs on. The epilogue oracles drop the
// unit scales: with real-valued weights and activations, every output of
// spmm_stripe_list_q8 and PackedDenseMatrix::gemm_rows_q8 must equal
// (float(sum of code products) * row scale) * stream scale bit for bit,
// with codes and scales from pack()'s formula, which pins the
// dequantization's rounding order on every build. The transpose oracle
// checks the column-major activation panel against a scalar transpose,
// pad lanes included. The fp32-activation dot oracle pins the int8
// weight x fp32 activation dots (dense gemv, BSPC spmv with and without
// LRE) to one 8-lane fused multiply-add tree on every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "hw/thread_pool.hpp"
#include "sparse/block_mask.hpp"
#include "sparse/bspc.hpp"
#include "sparse/bspc_quant.hpp"
#include "tensor/matrix.hpp"
#include "tensor/packed_dense.hpp"
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

/// A num_r x num_c block mask whose (stripe, block) kept-column counts
/// cycle through `keep_counts` (clamped to the block width), with
/// `pruned_rows` removed. Every stripe keeps at least one column.
BlockMask make_mask(std::size_t rows, std::size_t cols, std::size_t num_r,
                    std::size_t num_c,
                    const std::vector<std::size_t>& keep_counts,
                    const std::vector<std::size_t>& pruned_rows, Rng& rng) {
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
      // carry a nonzero weight.
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
  return mask;
}

/// make_mask's structure with integer weights: row 0 is all +127 and
/// row 1 all -127 over their kept columns; every other active row gets
/// one +-127 entry so each row's max |w| is exactly 127.
IntegerCase make_integer_case(std::size_t rows, std::size_t cols,
                              std::size_t num_r, std::size_t num_c,
                              const std::vector<std::size_t>& keep_counts,
                              const std::vector<std::size_t>& pruned_rows,
                              std::uint64_t seed) {
  Rng rng(seed);
  const BlockMask mask =
      make_mask(rows, cols, num_r, num_c, keep_counts, pruned_rows, rng);
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

/// Weight codes and per-row scales by pack()'s formula: scale = max |w|
/// over the row's kept entries (over every kept entry for per-tensor) /
/// 127, code = clamp(round(w / scale)), and all-zero codes for a zero
/// scale.
struct ReferenceCodes {
  std::vector<int> code;  // row-major rows x cols
  std::vector<float> scale;
};

ReferenceCodes reference_codes(const Matrix& w, WeightPrecision precision) {
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  std::vector<float> row_max(rows, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      row_max[r] = std::max(row_max[r], std::fabs(w(r, c)));
    }
  }
  if (precision == WeightPrecision::kInt8PerTensor) {
    const float tensor_max = *std::max_element(row_max.begin(), row_max.end());
    std::fill(row_max.begin(), row_max.end(), tensor_max);
  }
  ReferenceCodes ref;
  ref.code.assign(rows * cols, 0);
  ref.scale.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float scale = row_max[r] / kInt8CodeLimit;
    ref.scale[r] = scale;
    if (scale == 0.0F) continue;
    for (std::size_t c = 0; c < cols; ++c) {
      ref.code[r * cols + c] = static_cast<int>(
          std::clamp(std::round(w(r, c) / scale), -kInt8CodeLimit,
                     kInt8CodeLimit));
    }
  }
  return ref;
}

/// Real-valued activations for `batch` streams, with per-stream
/// magnitudes spread over three decades so no stream scale is 1.
QuantizedActivations real_activations(std::size_t batch, std::size_t dim,
                                      std::uint64_t seed) {
  Rng rng(seed);
  QuantizedActivations q;
  q.resize(batch, dim);
  std::vector<float> x(dim);
  for (std::size_t b = 0; b < batch; ++b) {
    const float magnitude = 0.01F * static_cast<float>(1 + (b * 37) % 100);
    for (float& v : x) v = magnitude * rng.normal();
    q.quantize_row(b, x);
  }
  q.transpose(batch);
  return q;
}

/// (float(sum_k code[r][k] * acode[b][k]) * scale[r]) * xs[b]: the
/// dequantized output the epilogue must write, bit for bit.
float reference_output(const ReferenceCodes& ref, std::size_t cols,
                       const QuantizedActivations& q, std::size_t r,
                       std::size_t b) {
  std::int32_t sum = 0;
  const std::int8_t* a = q.row(b);
  for (std::size_t k = 0; k < cols; ++k) {
    sum += ref.code[r * cols + k] * static_cast<std::int32_t>(a[k]);
  }
  const float scaled = static_cast<float>(sum) * ref.scale[r];
  return scaled * q.scale[b];
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Real-valued weights over make_mask's structure, each row's magnitude
/// its own (1..5x), so per-row scales all differ.
Matrix real_weights(const BlockMask& mask, Rng& rng) {
  Matrix w(mask.rows(), mask.cols(), 0.0F);
  for (std::size_t r = 0; r < mask.rows(); ++r) {
    const float magnitude = 0.05F * static_cast<float>(1 + r % 5);
    for (std::size_t c = 0; c < mask.cols(); ++c) {
      if (mask.is_kept(r, c)) w(r, c) = magnitude * rng.normal();
    }
  }
  return w;
}

TEST(Int8MatmatOracle, SparseEpilogueIsBitwiseDequantizedSum) {
  // 7 stripes of 20 rows (spans of 1..20 rows, never a multiple of 8
  // apart from the 16-row one): stripe 0 loses its first row, stripe 1
  // its last, stripe 2 keeps one row, stripe 3 keeps all 20, stripe 4
  // loses both ends and two inner rows, stripe 5 loses every row, and
  // stripe 6 keeps rows 122..137 (a 16-row span).
  std::vector<std::size_t> pruned = {0, 39, 80, 85, 90, 99};
  for (std::size_t r = 40; r < 60; ++r) {
    if (r != 47) pruned.push_back(r);
  }
  for (std::size_t r = 100; r < 122; ++r) pruned.push_back(r);
  for (std::size_t r = 138; r < 140; ++r) pruned.push_back(r);
  Rng rng(91);
  const BlockMask mask = make_mask(140, 70, 7, 3,
                                   {23, 17, 10, 3, 0, 12, 1, 22, 5, 16},
                                   pruned, rng);
  const Matrix w = real_weights(mask, rng);
  const BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
  ASSERT_EQ(bspc.num_stripes(), 7U);

  const std::vector<std::vector<std::uint32_t>> lists = {
      {0, 1, 2, 3, 4, 5, 6}, {4, 1}, {2}, {6, 5, 3, 0}};
  for (const WeightPrecision precision :
       {WeightPrecision::kInt8PerRow, WeightPrecision::kInt8PerTensor}) {
    const ReferenceCodes ref = reference_codes(w, precision);
    const PackedQuantizedBspc packed = PackedQuantizedBspc::pack(bspc, precision);
    for (const std::size_t batch : kBatches) {
      const QuantizedActivations q = real_activations(batch, 70, 300 + batch);
      for (const std::vector<std::uint32_t>& stripes : lists) {
        std::vector<bool> listed(140, false);
        for (const std::uint32_t s : stripes) {
          for (const std::uint32_t r : bspc.stripe_rows(s)) listed[r] = true;
        }
        // The kernel accumulates into y. A nonzero start makes the add a
        // real rounding (so a fused multiply-add would show), and every
        // output it must not write has to keep its start exactly.
        Matrix base(batch + 1, 140);
        for (float& v : base.span()) v = 0.1F * rng.normal();
        Matrix y = base;
        std::vector<std::int32_t> scratch(packed.q8_scratch_words(batch));
        packed.spmm_stripe_list_q8(q, y, batch, stripes, scratch);
        for (std::size_t b = 0; b <= batch; ++b) {
          for (std::size_t r = 0; r < 140; ++r) {
            // volatile: the add must round on its own, never contract
            // with the multiply into an FMA.
            volatile float v = 0.0F;
            if (b < batch && listed[r]) v = reference_output(ref, 70, q, r, b);
            const float want = b < batch && listed[r] ? base(b, r) + v
                                                      : base(b, r);
            ASSERT_TRUE(same_bits(y(b, r), want))
                << to_string(precision) << " batch " << batch << " list of "
                << stripes.size() << " stream " << b << " row " << r
                << ": got " << y(b, r) << " want " << want;
          }
        }
      }
    }
  }
}

TEST(Int8MatmatOracle, DenseEpilogueIsBitwiseDequantizedSum) {
  // 45 x 153: neither the row ranges nor the column count are multiples
  // of 8 (or of the VNNI panel's 4 columns). Rows outside the range and
  // streams past the batch keep their sentinel.
  Rng rng(17);
  Matrix w(45, 153);
  for (std::size_t r = 0; r < 45; ++r) {
    const float magnitude = 0.05F * static_cast<float>(1 + r % 5);
    for (float& v : w.row(r)) v = magnitude * rng.normal();
  }
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 45}, {3, 20}, {20, 45}, {7, 8}, {8, 24}};
  const float sentinel = -1.5F;
  for (const WeightPrecision precision :
       {WeightPrecision::kInt8PerRow, WeightPrecision::kInt8PerTensor}) {
    const ReferenceCodes ref = reference_codes(w, precision);
    const PackedDenseMatrix packed = PackedDenseMatrix::pack(w, precision);
    for (const std::size_t batch : kBatches) {
      const QuantizedActivations q = real_activations(batch, 153, 500 + batch);
      std::vector<std::int32_t> scratch(packed.q8_scratch_words(batch));
      for (const auto& [begin, end] : ranges) {
        Matrix y(batch + 1, 45, sentinel);
        packed.gemm_rows_q8(q, y, batch, begin, end, scratch);
        for (std::size_t b = 0; b <= batch; ++b) {
          for (std::size_t r = 0; r < 45; ++r) {
            const float want = b < batch && r >= begin && r < end
                                   ? reference_output(ref, 153, q, r, b)
                                   : sentinel;
            ASSERT_TRUE(same_bits(y(b, r), want))
                << to_string(precision) << " batch " << batch << " rows ["
                << begin << ", " << end << ") stream " << b << " row " << r
                << ": got " << y(b, r) << " want " << want;
          }
        }
      }
    }
  }
}

TEST(Int8MatmatOracle, ThreadedPlansMatchSingleThreadBitwise) {
  // The dense plan gives each pool chunk its own scratch partition and a
  // disjoint row range; the BSPC plan gives each thread range its own
  // stripes. Either way every output is written by exactly one chunk,
  // so threading must not move a bit (and TSan must see no race).
  ThreadPool pool(3);
  Rng rng(23);
  const BlockMask mask = make_mask(60, 45, 6, 2, {20, 7, 13, 1}, {0, 9, 31},
                                   rng);
  const Matrix w = real_weights(mask, rng);
  for (const SparseFormat format : {SparseFormat::kDense, SparseFormat::kBspc}) {
    CompilerOptions options;
    options.format = format;
    options.precision = WeightPrecision::kInt8PerRow;
    options.min_nnz_for_threading = 0;
    const LayerPlan single = LayerPlan::compile(w, &mask, options);
    options.threads = pool.thread_count();
    const LayerPlan threaded = LayerPlan::compile(w, &mask, options);
    for (const std::size_t batch : {9U, 33U}) {
      const QuantizedActivations q = real_activations(batch, 45, 700 + batch);
      const Matrix x(batch, 45, 0.0F);  // unread: the codes drive the kernel
      Matrix want(batch, 60, 0.0F);
      Matrix got(batch, 60, 0.0F);
      LreScratch scratch;
      single.execute_batch(x, want, batch, nullptr, &scratch, &q);
      threaded.execute_batch(x, got, batch, &pool, &scratch, &q);
      ASSERT_NE(*std::max_element(want.span().begin(), want.span().end()),
                0.0F);
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << to_string(format) << " batch " << batch;
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

/// The summation tree dot_q8_f32 and dot_q8_f32_indexed promise: lane j
/// accumulates elements k + j with one fused multiply-add per step
/// (_mm256_fmadd_ps on AVX2 builds), the lanes reduce pairwise as
/// reduce_lanes does, and the n % 8 tail adds unfused.
float dot_q8_oracle(const std::vector<int>& codes,
                    const std::vector<float>& x) {
  float lane[8] = {};
  const std::size_t n = codes.size();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      lane[j] = std::fma(static_cast<float>(codes[k + j]), x[k + j], lane[j]);
    }
  }
  float tail = 0.0F;
  for (; k < n; ++k) {
    const float product = static_cast<float>(codes[k]) * x[k];
    tail += product;
  }
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

TEST(Int8MatmatOracle, Fp32ActivationDotsAreTheFusedLaneTree) {
  // Integer weights peaking at 127 give every row scale exactly 1, so
  // each output is the dot itself (times 1, or added to a zeroed y).
  Rng rng(91);
  for (const std::size_t n : {0U, 1U, 7U, 8U, 9U, 153U, 1024U}) {
    const std::size_t width = n + 3;  // columns the block skips
    std::vector<std::uint32_t> kept(width);
    for (std::size_t c = 0; c < width; ++c) {
      kept[c] = static_cast<std::uint32_t>(c);
    }
    rng.shuffle(kept);
    kept.resize(n);
    std::sort(kept.begin(), kept.end());

    std::vector<int> codes(n);
    for (std::size_t k = 0; k < n; ++k) codes[k] = random_code(rng);
    if (n > 0) codes[n / 2] = n % 2 == 0 ? 127 : -127;
    std::vector<float> x(width);
    for (float& v : x) v = rng.normal();
    std::vector<float> gathered(n);
    Matrix dense(1, n, 0.0F);
    Matrix sparse(1, width, 0.0F);
    for (std::size_t k = 0; k < n; ++k) {
      gathered[k] = x[kept[k]];
      dense(0, k) = static_cast<float>(codes[k]);
      sparse(0, kept[k]) = static_cast<float>(codes[k]);
    }
    const float want = dot_q8_oracle(codes, gathered);

    // dot_q8_f32 through the dense gemv (row scale 1; 0 for an empty row).
    const PackedDenseMatrix packed_dense =
        PackedDenseMatrix::pack(dense, WeightPrecision::kInt8PerRow);
    std::vector<float> y(1, 1.0F);
    packed_dense.gemv(gathered, y);
    EXPECT_TRUE(same_bits(y[0], want * (n > 0 ? 1.0F : 0.0F)))
        << "dense gemv n=" << n << ": " << y[0] << " vs " << want;

    if (n == 0) continue;  // a row with no kept column has no BSPC block
    BlockMask mask(1, width, 1, 1);
    mask.set_block_cols(0, 0, kept);
    const PackedQuantizedBspc packed = PackedQuantizedBspc::pack(
        BspcMatrix::from_dense(sparse, mask), WeightPrecision::kInt8PerRow);
    const std::vector<std::uint32_t> stripes = {0};
    // dot_q8_f32 on the LRE gather, then dot_q8_f32_indexed.
    for (const bool use_lre : {true, false}) {
      y.assign(1, 0.0F);
      packed.spmv_stripe_list(x, y, stripes, use_lre);
      EXPECT_TRUE(same_bits(y[0], 0.0F + want))
          << "bspc spmv n=" << n << " lre=" << use_lre << ": " << y[0]
          << " vs " << want;
    }
  }
}

}  // namespace
}  // namespace rtmobile
