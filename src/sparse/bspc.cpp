#include "sparse/bspc.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

#include "tensor/fp32_lanes.hpp"
#include "util/check.hpp"

namespace rtmobile {
namespace {

#if defined(__AVX2__)
/// Rows in lanes for S streams: y[s * y_stride + rows[i]] += sum_k
/// tile[i][k] * g[s * g_stride + k] for every row i of a stripe block
/// (the per-vector LRE inner loop). Eight rows share each broadcast
/// g[k], and each transposed sub-tile serves all S streams.
template <std::size_t S>
void rows_in_lanes(const float* tile, std::size_t n_rows, std::size_t n_cols,
                   const float* g, std::size_t g_stride,
                   const std::uint32_t* rows, float* y, std::size_t y_stride) {
  alignas(32) float lane[8];
  for (std::size_t i = 0; i < n_rows; i += 8) {
    const std::size_t count = std::min<std::size_t>(8, n_rows - i);
    __m256 acc[S];
    fp32_lanes::rows_dot8(tile + i * n_cols, n_cols, count, g, g_stride,
                          n_cols, acc);
    for (std::size_t s = 0; s < S; ++s) {
      _mm256_store_ps(lane, acc[s]);
      for (std::size_t l = 0; l < count; ++l) {
        y[s * y_stride + rows[i + l]] += lane[l];
      }
    }
  }
}
#endif

}  // namespace

BspcMatrix BspcMatrix::from_dense(const Matrix& weights,
                                  const BlockMask& mask) {
  RT_REQUIRE(weights.rows() == mask.rows() && weights.cols() == mask.cols(),
             "BSPC: weight/mask shape mismatch");
  BspcMatrix out;
  out.rows_ = mask.rows();
  out.cols_ = mask.cols();
  out.num_r_ = mask.num_r();
  out.num_c_ = mask.num_c();

  out.stripe_row_ptr_.push_back(0);
  out.stripe_block_ptr_.push_back(0);
  for (std::size_t s = 0; s < mask.num_r(); ++s) {
    // Surviving rows of this stripe, ascending. The compiler's reorder pass
    // rebuilds the matrix with a permuted mask when it changes this order.
    for (std::size_t r = mask.row_begin(s); r < mask.row_end(s); ++r) {
      if (mask.row_kept(r)) {
        out.active_rows_.push_back(static_cast<std::uint32_t>(r));
      }
    }
    out.stripe_row_ptr_.push_back(
        static_cast<std::uint32_t>(out.active_rows_.size()));

    const std::size_t row_lo = out.stripe_row_ptr_[s];
    const std::size_t row_hi = out.stripe_row_ptr_[s + 1];
    for (std::size_t b = 0; b < mask.num_c(); ++b) {
      const auto cols = mask.block_cols(s, b);
      if (cols.empty() || row_lo == row_hi) continue;
      BlockRef ref;
      ref.col_offset = static_cast<std::uint32_t>(out.col_pool_.size());
      ref.col_count = static_cast<std::uint32_t>(cols.size());
      ref.value_offset = out.values_.size();
      out.col_pool_.insert(out.col_pool_.end(), cols.begin(), cols.end());
      out.max_block_cols_ = std::max(out.max_block_cols_, cols.size());
      for (std::size_t i = row_lo; i < row_hi; ++i) {
        const std::size_t r = out.active_rows_[i];
        for (const std::uint32_t c : cols) {
          out.values_.push_back(weights(r, c));
        }
      }
      out.blocks_.push_back(ref);
    }
    out.stripe_block_ptr_.push_back(
        static_cast<std::uint32_t>(out.blocks_.size()));
  }
  return out;
}

void BspcMatrix::spmv(std::span<const float> x, std::span<float> y) const {
  RT_REQUIRE(x.size() == cols_, "BSPC spmv: x size mismatch");
  RT_REQUIRE(y.size() == rows_, "BSPC spmv: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0F);
  spmv_stripes(x, y, 0, num_r_, /*use_lre=*/true);
}

void BspcMatrix::spmv_no_lre(std::span<const float> x,
                             std::span<float> y) const {
  RT_REQUIRE(x.size() == cols_, "BSPC spmv: x size mismatch");
  RT_REQUIRE(y.size() == rows_, "BSPC spmv: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0F);
  spmv_stripes(x, y, 0, num_r_, /*use_lre=*/false);
}

void BspcMatrix::spmv_stripes(std::span<const float> x, std::span<float> y,
                              std::size_t stripe_begin,
                              std::size_t stripe_end, bool use_lre) const {
  RT_REQUIRE(stripe_begin <= stripe_end && stripe_end <= num_r_,
             "BSPC spmv: stripe range out of bounds");
  // One gather buffer reused by every block in the range; sized to the
  // widest block so there is no per-block allocation.
  std::vector<float> gathered;
  if (use_lre) gathered.resize(max_block_cols_);
  for (std::size_t s = stripe_begin; s < stripe_end; ++s) {
    process_stripe(x, y, s, use_lre, gathered);
  }
}

void BspcMatrix::spmv_stripe_list(std::span<const float> x,
                                  std::span<float> y,
                                  std::span<const std::uint32_t> stripes,
                                  bool use_lre,
                                  std::span<float> gather) const {
  RT_REQUIRE(!use_lre || gather.size() >= max_block_cols_,
             "BSPC spmv: LRE gather scratch smaller than max_block_cols");
  for (const std::uint32_t s : stripes) {
    RT_REQUIRE(s < num_r_, "BSPC spmv: stripe index out of range");
    process_stripe(x, y, s, use_lre, gather);
  }
}

void BspcMatrix::spmv_stripe_list(std::span<const float> x,
                                  std::span<float> y,
                                  std::span<const std::uint32_t> stripes,
                                  bool use_lre) const {
  std::vector<float> gathered;
  if (use_lre) gathered.resize(max_block_cols_);
  spmv_stripe_list(x, y, stripes, use_lre,
                   {gathered.data(), gathered.size()});
}

void BspcMatrix::spmm_stripe_list(const Matrix& x, Matrix& y,
                                  std::size_t batch,
                                  std::span<const std::uint32_t> stripes,
                                  bool use_lre,
                                  std::span<float> gather) const {
  RT_REQUIRE(x.cols() == cols_ && y.cols() == rows_,
             "BSPC spmm: panel shape mismatch");
  RT_REQUIRE(batch <= x.rows() && batch <= y.rows(),
             "BSPC spmm: batch exceeds panel");
  RT_REQUIRE(!use_lre || gather.size() >= batch * max_block_cols_,
             "BSPC spmm: LRE gather scratch smaller than batch panel");
  for (const std::uint32_t s : stripes) {
    RT_REQUIRE(s < num_r_, "BSPC spmm: stripe index out of range");
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t n_rows = stripe_row_ptr_[s + 1] - row_lo;
    if (n_rows == 0) continue;
    for (std::uint32_t bi = stripe_block_ptr_[s];
         bi < stripe_block_ptr_[s + 1]; ++bi) {
      const BlockRef& ref = blocks_[bi];
      const std::uint32_t* cols = col_pool_.data() + ref.col_offset;
      const float* block_values = values_.data() + ref.value_offset;
      if (use_lre) {
        // One gather of each stream's x per block, then the weight tile
        // is streamed once for all streams. Every (row, stream) sum is
        // the exact per-vector LRE loop, so per stream the result is
        // bit-identical to spmv_stripe_list.
        for (std::size_t b = 0; b < batch; ++b) {
          float* g = gather.data() + b * max_block_cols_;
          const float* xb = x.row(b).data();
          for (std::uint32_t k = 0; k < ref.col_count; ++k) {
            g[k] = xb[cols[k]];
          }
        }
#if defined(__AVX2__)
        // Rows in lanes, up to four streams sharing each transposed
        // sub-tile.
        const std::uint32_t* rows = active_rows_.data() + row_lo;
        for (std::size_t b = 0; b < batch;) {
          const float* g = gather.data() + b * max_block_cols_;
          float* yb = y.row(b).data();
          if (batch - b >= 4) {
            rows_in_lanes<4>(block_values, n_rows, ref.col_count, g,
                             max_block_cols_, rows, yb, y.cols());
            b += 4;
          } else if (batch - b >= 2) {
            rows_in_lanes<2>(block_values, n_rows, ref.col_count, g,
                             max_block_cols_, rows, yb, y.cols());
            b += 2;
          } else {
            rows_in_lanes<1>(block_values, n_rows, ref.col_count, g,
                             max_block_cols_, rows, yb, y.cols());
            b += 1;
          }
        }
#else
        for (std::size_t i = 0; i < n_rows; ++i) {
          const float* vrow = block_values + i * ref.col_count;
          const std::size_t r = active_rows_[row_lo + i];
          for (std::size_t b = 0; b < batch; ++b) {
            const float* g = gather.data() + b * max_block_cols_;
            float acc = 0.0F;
            for (std::uint32_t k = 0; k < ref.col_count; ++k) {
              acc += vrow[k] * g[k];
            }
            y.row(b)[r] += acc;
          }
        }
#endif
      } else {
        for (std::size_t i = 0; i < n_rows; ++i) {
          const float* vrow = block_values + i * ref.col_count;
          const std::size_t r = active_rows_[row_lo + i];
          for (std::size_t b = 0; b < batch; ++b) {
            const float* xb = x.row(b).data();
            float acc = 0.0F;
            for (std::uint32_t k = 0; k < ref.col_count; ++k) {
              acc += vrow[k] * xb[cols[k]];
            }
            y.row(b)[r] += acc;
          }
        }
      }
    }
  }
}

void BspcMatrix::process_stripe(std::span<const float> x, std::span<float> y,
                                std::size_t s, bool use_lre,
                                std::span<float> gathered) const {
  {
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t row_hi = stripe_row_ptr_[s + 1];
    const std::size_t n_rows = row_hi - row_lo;
    if (n_rows == 0) return;
    for (std::uint32_t bi = stripe_block_ptr_[s]; bi < stripe_block_ptr_[s + 1];
         ++bi) {
      const BlockRef& ref = blocks_[bi];
      const std::uint32_t* cols = col_pool_.data() + ref.col_offset;
      const float* block_values = values_.data() + ref.value_offset;
      if (use_lre) {
        // Redundant load elimination: one gather of x per block, shared by
        // all rows of the stripe.
        for (std::uint32_t k = 0; k < ref.col_count; ++k) {
          gathered[k] = x[cols[k]];
        }
#if defined(__AVX2__)
        rows_in_lanes<1>(block_values, n_rows, ref.col_count,
                         gathered.data(), 0, active_rows_.data() + row_lo,
                         y.data(), 0);
#else
        for (std::size_t i = 0; i < n_rows; ++i) {
          const float* vrow = block_values + i * ref.col_count;
          float acc = 0.0F;
          for (std::uint32_t k = 0; k < ref.col_count; ++k) {
            acc += vrow[k] * gathered[k];
          }
          y[active_rows_[row_lo + i]] += acc;
        }
#endif
      } else {
        // Ablation path: every row re-gathers x through the index pool.
        for (std::size_t i = 0; i < n_rows; ++i) {
          const float* vrow = block_values + i * ref.col_count;
          float acc = 0.0F;
          for (std::uint32_t k = 0; k < ref.col_count; ++k) {
            acc += vrow[k] * x[cols[k]];
          }
          y[active_rows_[row_lo + i]] += acc;
        }
      }
    }
  }
}

std::size_t BspcMatrix::stripe_nnz(std::size_t stripe) const {
  RT_REQUIRE(stripe < num_r_, "stripe index out of range");
  const std::size_t n_rows =
      stripe_row_ptr_[stripe + 1] - stripe_row_ptr_[stripe];
  std::size_t cols_in_stripe = 0;
  for (std::uint32_t bi = stripe_block_ptr_[stripe];
       bi < stripe_block_ptr_[stripe + 1]; ++bi) {
    cols_in_stripe += blocks_[bi].col_count;
  }
  return n_rows * cols_in_stripe;
}

std::span<const std::uint32_t> BspcMatrix::stripe_rows(
    std::size_t stripe) const {
  RT_REQUIRE(stripe < num_r_, "stripe index out of range");
  return {active_rows_.data() + stripe_row_ptr_[stripe],
          stripe_row_ptr_[stripe + 1] - stripe_row_ptr_[stripe]};
}

Matrix BspcMatrix::to_dense() const {
  Matrix dense(rows_, cols_, 0.0F);
  for (std::size_t s = 0; s < num_r_; ++s) {
    const std::size_t row_lo = stripe_row_ptr_[s];
    const std::size_t n_rows = stripe_row_ptr_[s + 1] - row_lo;
    for (std::uint32_t bi = stripe_block_ptr_[s]; bi < stripe_block_ptr_[s + 1];
         ++bi) {
      const BlockRef& ref = blocks_[bi];
      for (std::size_t i = 0; i < n_rows; ++i) {
        const std::size_t r = active_rows_[row_lo + i];
        const float* vrow = values_.data() + ref.value_offset +
                            i * ref.col_count;
        for (std::uint32_t k = 0; k < ref.col_count; ++k) {
          dense(r, col_pool_[ref.col_offset + k]) = vrow[k];
        }
      }
    }
  }
  return dense;
}

namespace {

constexpr std::array<char, 4> kBspcMagic = {'B', 'S', 'P', 'C'};
constexpr std::uint32_t kBspcVersion = 1;

void write_u64(std::ostream& os, std::uint64_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  RT_CHECK(is.good(), "truncated BSPC stream");
  return value;
}

template <typename T>
void write_pod_vector(std::ostream& os, const T& vec) {
  write_u64(os, vec.size());
  os.write(reinterpret_cast<const char*>(vec.data()),
           static_cast<std::streamsize>(vec.size() *
                                        sizeof(typename T::value_type)));
}

template <typename T>
void read_pod_vector(std::istream& is, T& vec, std::uint64_t max_size) {
  const std::uint64_t size = read_u64(is);
  RT_CHECK(size <= max_size, "BSPC vector size out of range");
  vec.resize(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(vec.data()),
          static_cast<std::streamsize>(vec.size() *
                                       sizeof(typename T::value_type)));
  RT_CHECK(is.good(), "truncated BSPC payload");
}

}  // namespace

void BspcMatrix::write(std::ostream& os) const {
  os.write(kBspcMagic.data(), kBspcMagic.size());
  const std::uint32_t version = kBspcVersion;
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
  write_u64(os, rows_);
  write_u64(os, cols_);
  write_u64(os, num_r_);
  write_u64(os, num_c_);
  write_u64(os, max_block_cols_);
  write_pod_vector(os, stripe_row_ptr_);
  write_pod_vector(os, active_rows_);
  write_pod_vector(os, stripe_block_ptr_);
  write_pod_vector(os, blocks_);
  write_pod_vector(os, col_pool_);
  write_pod_vector(os, values_);
  RT_CHECK(os.good(), "failed writing BSPC payload");
}

BspcMatrix BspcMatrix::read(std::istream& is) {
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  RT_CHECK(is.good() && magic == kBspcMagic, "bad BSPC magic");
  std::uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  RT_CHECK(is.good() && version == kBspcVersion,
           "unsupported BSPC version");

  BspcMatrix out;
  out.rows_ = static_cast<std::size_t>(read_u64(is));
  out.cols_ = static_cast<std::size_t>(read_u64(is));
  out.num_r_ = static_cast<std::size_t>(read_u64(is));
  out.num_c_ = static_cast<std::size_t>(read_u64(is));
  out.max_block_cols_ = static_cast<std::size_t>(read_u64(is));
  constexpr std::uint64_t kLimit = 1ULL << 34;
  RT_CHECK(out.rows_ <= kLimit && out.cols_ <= kLimit &&
               out.num_r_ <= out.rows_ && out.num_c_ <= out.cols_ &&
               out.max_block_cols_ <= out.cols_,
           "BSPC header out of range");
  read_pod_vector(is, out.stripe_row_ptr_, kLimit);
  read_pod_vector(is, out.active_rows_, kLimit);
  read_pod_vector(is, out.stripe_block_ptr_, kLimit);
  read_pod_vector(is, out.blocks_, kLimit);
  read_pod_vector(is, out.col_pool_, kLimit);
  read_pod_vector(is, out.values_, kLimit);

  // Structural validation: a corrupt file must not produce out-of-bounds
  // execution later.
  RT_CHECK(out.stripe_row_ptr_.size() == out.num_r_ + 1 &&
               out.stripe_block_ptr_.size() == out.num_r_ + 1,
           "BSPC stripe tables inconsistent");
  RT_CHECK(out.stripe_row_ptr_.back() == out.active_rows_.size() &&
               out.stripe_block_ptr_.back() == out.blocks_.size(),
           "BSPC table terminators inconsistent");
  for (const std::uint32_t r : out.active_rows_) {
    RT_CHECK(r < out.rows_, "BSPC active row out of range");
  }
  for (const std::uint32_t c : out.col_pool_) {
    RT_CHECK(c < out.cols_, "BSPC column index out of range");
  }
  for (const BlockRef& ref : out.blocks_) {
    RT_CHECK(ref.col_offset + ref.col_count <= out.col_pool_.size(),
             "BSPC block column range out of bounds");
    RT_CHECK(ref.col_count <= out.max_block_cols_,
             "BSPC block wider than declared maximum");
  }
  // Value extents per stripe: rows_in_stripe * cols must fit values_.
  for (std::size_t s = 0; s < out.num_r_; ++s) {
    const std::size_t n_rows =
        out.stripe_row_ptr_[s + 1] - out.stripe_row_ptr_[s];
    for (std::uint32_t bi = out.stripe_block_ptr_[s];
         bi < out.stripe_block_ptr_[s + 1]; ++bi) {
      const BlockRef& ref = out.blocks_[bi];
      RT_CHECK(ref.value_offset + n_rows * ref.col_count <=
                   out.values_.size(),
               "BSPC block values out of bounds");
    }
  }
  return out;
}

bool operator==(const BspcMatrix& a, const BspcMatrix& b) {
  const auto block_eq = [](const BspcMatrix::BlockRef& x,
                           const BspcMatrix::BlockRef& y) {
    return x.col_offset == y.col_offset && x.col_count == y.col_count &&
           x.value_offset == y.value_offset;
  };
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.num_r_ == b.num_r_ &&
         a.num_c_ == b.num_c_ && a.stripe_row_ptr_ == b.stripe_row_ptr_ &&
         a.active_rows_ == b.active_rows_ &&
         a.stripe_block_ptr_ == b.stripe_block_ptr_ &&
         a.blocks_.size() == b.blocks_.size() &&
         std::equal(a.blocks_.begin(), a.blocks_.end(), b.blocks_.begin(),
                    block_eq) &&
         a.col_pool_ == b.col_pool_ && a.values_ == b.values_;
}

std::size_t BspcMatrix::memory_bytes(std::size_t value_bytes,
                                     std::size_t index_bytes) const {
  const std::size_t meta_bytes =
      blocks_.size() * (2 * index_bytes + sizeof(std::uint64_t)) +
      (stripe_row_ptr_.size() + stripe_block_ptr_.size()) * index_bytes;
  return values_.size() * value_bytes + col_pool_.size() * index_bytes +
         active_rows_.size() * index_bytes + meta_bytes;
}

}  // namespace rtmobile
