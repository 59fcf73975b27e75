// BSPC — Block-based Structured Pruning Compact format (paper Sec. IV-B(c)).
//
// After BSP, every kept row of a stripe shares the stripe's kept-column
// pattern, so the column indices need to be stored once per (stripe, block)
// instead of once per nonzero as in CSR. The payload per (stripe, block) is
// a dense tile of shape [active rows in stripe] x [kept columns in block].
//
// The format records everything the executor needs: the surviving rows per
// stripe (which doubles as the reorder information once the compiler pass
// permutes them), the kept-column pool, and packed values. Index overhead
// is O(#blocks + #rows) versus CSR's O(nnz).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "sparse/block_mask.hpp"
#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile {

class BspcMatrix {
 public:
  /// One (stripe, block) tile: `col_count` kept columns starting at
  /// `col_offset` in the column pool, with a dense [active rows x
  /// col_count] value payload at `value_offset`. Public so the packed
  /// quantized format (PackedQuantizedBspc) can share the structural
  /// metadata while swapping the value payload's storage width.
  struct BlockRef {
    std::uint32_t col_offset = 0;  // into col_pool()
    std::uint32_t col_count = 0;
    std::uint64_t value_offset = 0;  // into values()
  };

  BspcMatrix() = default;

  /// Packs `weights` according to `mask`. Shapes must match. Entries not
  /// kept by the mask are dropped regardless of their value.
  [[nodiscard]] static BspcMatrix from_dense(const Matrix& weights,
                                             const BlockMask& mask);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t num_stripes() const { return num_r_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// y = A x using the redundant-load-elimination schedule: the input
  /// values of a block are gathered once and reused by every active row.
  ///
  /// Every LRE kernel below computes each (row, block) partial sum as
  /// acc = 0; acc = acc + v[k] * g[k] for k ascending, a separate
  /// multiply and add, then adds it to y. AVX2 builds keep that order
  /// exactly by giving each lane one whole sum (eight active rows per
  /// register), so their results are bit-identical to the scalar
  /// build's.
  void spmv(std::span<const float> x, std::span<float> y) const;

  /// y = A x indexing x per row (no LRE). Same result, used for the
  /// compiler-ablation benchmark. Always scalar, so the ablation's LRE
  /// gap also includes the LRE kernels' SIMD lanes.
  void spmv_no_lre(std::span<const float> x, std::span<float> y) const;

  /// Processes stripes [stripe_begin, stripe_end) only, accumulating into
  /// y (caller zeroes y). This is the unit of work the multithreaded
  /// executor partitions across threads.
  void spmv_stripes(std::span<const float> x, std::span<float> y,
                    std::size_t stripe_begin, std::size_t stripe_end,
                    bool use_lre = true) const;

  /// Processes an explicit list of stripes in the given order (the
  /// compiler's reorder pass chooses the order), accumulating into y.
  /// Stripe row sets are disjoint, so concurrent calls with disjoint
  /// stripe lists never race on y. `gather` is the LRE scratch buffer
  /// (>= max_block_cols() floats when use_lre; may be empty otherwise) —
  /// caller-provided so the serving step path performs zero heap
  /// allocations per matvec. Concurrent calls need disjoint buffers.
  /// With LRE on AVX2 the kernel runs rows in lanes: 8x8 sub-tiles of
  /// each block's row-major tile are transposed in registers, so eight
  /// active rows share each broadcast gathered input.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes, bool use_lre,
                        std::span<float> gather) const;
  /// Convenience overload that allocates its own gather scratch.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes,
                        bool use_lre = true) const;

  /// Batched form of spmv_stripe_list: row b of X (b < batch) is an
  /// independent input vector and row b of Y accumulates (A X[b]) for
  /// the listed stripes (caller zeroes the rows). Each block's weight
  /// tile is streamed from memory once for the whole batch — the fused
  /// step's weight-traffic amortization — while every (row, stream)
  /// accumulation keeps the exact per-vector loop shape, so each
  /// stream's result is bit-identical to spmv_stripe_list on its own.
  /// `gather` needs batch * max_block_cols() floats when use_lre
  /// (stream b's gathered panel lives at offset b * max_block_cols()).
  /// X/Y may have extra trailing rows beyond `batch`.
  ///
  /// With LRE on AVX2 the kernel runs rows in lanes like
  /// spmv_stripe_list, with up to four streams sharing each transposed
  /// sub-tile.
  void spmm_stripe_list(const Matrix& x, Matrix& y, std::size_t batch,
                        std::span<const std::uint32_t> stripes, bool use_lre,
                        std::span<float> gather) const;

  /// Nonzeros in one stripe (for load balancing).
  [[nodiscard]] std::size_t stripe_nnz(std::size_t stripe) const;

  /// Active (surviving) rows of a stripe, in execution order.
  [[nodiscard]] std::span<const std::uint32_t> stripe_rows(
      std::size_t stripe) const;

  /// Reconstructs the dense matrix.
  [[nodiscard]] Matrix to_dense() const;

  /// Storage footprint. value_bytes=2 models the paper's fp16 GPU path.
  [[nodiscard]] std::size_t memory_bytes(std::size_t value_bytes = 4,
                                         std::size_t index_bytes = 4) const;

  /// Serializes the compiled format (the artifact a deployment ships:
  /// no dense reconstruction needed on device). Binary, versioned.
  void write(std::ostream& os) const;

  /// Reads a matrix written by write(). Throws on malformed input.
  [[nodiscard]] static BspcMatrix read(std::istream& is);

  /// Structural + value equality.
  friend bool operator==(const BspcMatrix& a, const BspcMatrix& b);

  // ---- structural views (consumed by PackedQuantizedBspc) ----
  [[nodiscard]] std::size_t num_col_blocks() const { return num_c_; }
  [[nodiscard]] std::size_t max_block_cols() const {
    return max_block_cols_;
  }
  [[nodiscard]] std::span<const std::uint32_t> stripe_row_ptr() const {
    return stripe_row_ptr_;
  }
  [[nodiscard]] std::span<const std::uint32_t> active_rows() const {
    return active_rows_;
  }
  [[nodiscard]] std::span<const std::uint32_t> stripe_block_ptr() const {
    return stripe_block_ptr_;
  }
  [[nodiscard]] std::span<const BlockRef> blocks() const { return blocks_; }
  [[nodiscard]] std::span<const std::uint32_t> col_pool() const {
    return col_pool_;
  }
  [[nodiscard]] std::span<const float> values() const { return values_; }

 private:
  /// Runs one stripe's blocks, accumulating into y. `gathered` is the
  /// caller-provided LRE scratch buffer (>= max_block_cols_ when use_lre).
  void process_stripe(std::span<const float> x, std::span<float> y,
                      std::size_t s, bool use_lre,
                      std::span<float> gathered) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t num_r_ = 0;
  std::size_t num_c_ = 0;
  std::size_t max_block_cols_ = 0;
  std::vector<std::uint32_t> stripe_row_ptr_;    // num_r_+1 into active_rows_
  std::vector<std::uint32_t> active_rows_;       // global row ids
  std::vector<std::uint32_t> stripe_block_ptr_;  // num_r_+1 into blocks_
  std::vector<BlockRef> blocks_;
  std::vector<std::uint32_t> col_pool_;
  std::vector<float, AlignedAllocator<float>> values_;
};

}  // namespace rtmobile
