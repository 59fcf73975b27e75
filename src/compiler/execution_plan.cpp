#include "compiler/execution_plan.hpp"

#include <algorithm>

#include "tensor/gemm.hpp"
#include "util/check.hpp"

namespace rtmobile {

void LreScratch::prepare(std::size_t partitions, std::size_t floats) {
  if (buffers_.size() < partitions) buffers_.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    if (buffers_[p].size() < floats) buffers_[p].resize(floats);
  }
}

std::span<float> LreScratch::partition(std::size_t index) {
  RT_REQUIRE(index < buffers_.size(),
             "LreScratch: partition index not prepare()d");
  return {buffers_[index].data(), buffers_[index].size()};
}

void LreScratch::prepare_q8(std::size_t partitions, std::size_t words) {
  if (q8_buffers_.size() < partitions) q8_buffers_.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    if (q8_buffers_[p].size() < words) q8_buffers_[p].resize(words);
  }
}

std::span<std::int32_t> LreScratch::partition_q8(std::size_t index) {
  RT_REQUIRE(index < q8_buffers_.size(),
             "LreScratch: q8 partition index not prepare()d");
  return {q8_buffers_[index].data(), q8_buffers_[index].size()};
}

const char* to_string(SparseFormat format) {
  switch (format) {
    case SparseFormat::kDense: return "dense";
    case SparseFormat::kCsr: return "csr";
    case SparseFormat::kBspc: return "bspc";
  }
  return "?";
}

LayerPlan LayerPlan::compile(const Matrix& weights, const BlockMask* mask,
                             const CompilerOptions& options) {
  RT_REQUIRE(options.threads >= 1, "compile: threads must be positive");
  LayerPlan plan;
  plan.options_ = options;
  plan.rows_ = weights.rows();
  plan.cols_ = weights.cols();

  switch (options.format) {
    case SparseFormat::kDense: {
      if (plan.packed()) {
        plan.packed_dense_ = PackedDenseMatrix::pack(weights,
                                                     options.precision);
      } else {
        plan.dense_ = weights;
      }
      break;
    }
    case SparseFormat::kCsr: {
      RT_REQUIRE(options.precision == WeightPrecision::kFp32,
                 "CSR plans support fp32 only; use kBspc or kDense for "
                 "packed int8/fp16 storage");
      if (mask != nullptr) {
        Matrix masked = weights;
        mask->apply(masked);
        plan.csr_ = CsrMatrix::from_dense(masked);
      } else {
        plan.csr_ = CsrMatrix::from_dense(weights);
      }
      break;
    }
    case SparseFormat::kBspc: {
      RT_REQUIRE(mask != nullptr, "BSPC compilation requires a BlockMask");
      // The fp32 BspcMatrix is built either way; packed plans quantize
      // its value payload and drop the fp32 copy.
      BspcMatrix bspc = BspcMatrix::from_dense(weights, *mask);
      if (plan.packed()) {
        plan.packed_bspc_ = PackedQuantizedBspc::pack(bspc,
                                                      options.precision);
      } else {
        plan.bspc_ = std::move(bspc);
      }
      plan.reorder_ = options.reorder
                          ? reorder_block_mask(*mask, options.threads)
                          : identity_plan(*mask, options.threads);
      break;
    }
  }
  plan.nnz_ = plan.nnz();
  return plan;
}

std::size_t LayerPlan::lre_gather_floats() const {
  if (options_.format != SparseFormat::kBspc || !options_.lre) return 0;
  return packed() ? packed_bspc_.max_block_cols() : bspc_.max_block_cols();
}

std::size_t LayerPlan::batch_gather_floats() const {
  if (options_.format != SparseFormat::kBspc) return 0;
  if (packed()) return packed_bspc_.max_block_cols();
  return options_.lre ? bspc_.max_block_cols() : 0;
}

std::size_t LayerPlan::q8_scratch_words(std::size_t batch) const {
  if (!int8_weights()) return 0;
  return options_.format == SparseFormat::kBspc
             ? packed_bspc_.q8_scratch_words(batch)
             : packed_dense_.q8_scratch_words(batch);
}

void LayerPlan::execute(std::span<const float> x, std::span<float> y,
                        ThreadPool* pool, LreScratch* scratch) const {
  RT_REQUIRE(x.size() == cols_ && y.size() == rows_,
             "execute: shape mismatch");
  // Tiny matvecs run inline: a pool dispatch costs more than the kernel.
  const bool threaded = pool != nullptr && options_.threads > 1 &&
                        nnz_ >= options_.min_nnz_for_threading;

  switch (options_.format) {
    case SparseFormat::kDense: {
      if (packed()) {
        if (!threaded) {
          packed_dense_.gemv(x, y);
          return;
        }
        pool->parallel_for(rows_, [&](std::size_t begin, std::size_t end) {
          packed_dense_.gemv_rows(x, y, begin, end);
        });
        return;
      }
      if (!threaded) {
        gemv(dense_, x, y);
        return;
      }
      pool->parallel_for(rows_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const float* row = dense_.data() + r * cols_;
          float acc = 0.0F;
          for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
          y[r] = acc;
        }
      });
      return;
    }
    case SparseFormat::kCsr: {
      if (!threaded) {
        csr_.spmv(x, y);
        return;
      }
      const auto row_ptr = csr_.row_ptr();
      const auto col_idx = csr_.col_idx();
      const auto values = csr_.values();
      pool->parallel_for(rows_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          float acc = 0.0F;
          for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            acc += values[k] * x[col_idx[k]];
          }
          y[r] = acc;
        }
      });
      return;
    }
    case SparseFormat::kBspc: {
      RT_ASSERT(reorder_.has_value(), "BSPC plan lacks a reorder plan");
      std::fill(y.begin(), y.end(), 0.0F);
      const ReorderPlan& ro = *reorder_;
      // Caller scratch keeps the step path allocation-free; one-shot
      // callers without scratch pay a local allocation here instead.
      LreScratch local;
      LreScratch& gather = scratch != nullptr ? *scratch : local;
      const std::size_t gather_floats = lre_gather_floats();
      // The packed and fp32 kernels share the stripe-list contract, so
      // the thread partition below dispatches either transparently.
      const auto run_stripes = [&](std::span<const std::uint32_t> stripes,
                                   std::span<float> buffer) {
        if (packed()) {
          packed_bspc_.spmv_stripe_list(x, y, stripes, options_.lre, buffer);
        } else {
          bspc_.spmv_stripe_list(x, y, stripes, options_.lre, buffer);
        }
      };
      if (!threaded) {
        gather.prepare(1, gather_floats);
        run_stripes({ro.stripe_order.data(), ro.stripe_order.size()},
                    gather.partition(0));
        return;
      }
      // Buffers are prepared before dispatch: chunks only read the spans,
      // so concurrent partitions never touch the scratch's vectors.
      gather.prepare(ro.thread_ranges.size(), gather_floats);
      pool->parallel_for(
          ro.thread_ranges.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
              const auto& [begin, end] = ro.thread_ranges[r];
              run_stripes({ro.stripe_order.data() + begin,
                           static_cast<std::size_t>(end - begin)},
                          gather.partition(r));
            }
          });
      return;
    }
  }
}

void LayerPlan::execute_batch(const Matrix& x, Matrix& y, std::size_t batch,
                              ThreadPool* pool, LreScratch* scratch,
                              const QuantizedActivations* xq) const {
  RT_REQUIRE(batch > 0, "execute_batch: empty batch");
  RT_REQUIRE(x.cols() == cols_ && y.cols() == rows_,
             "execute_batch: panel shape mismatch");
  RT_REQUIRE(batch <= x.rows() && batch <= y.rows(),
             "execute_batch: batch exceeds panel");
  // One fp32 stream is a matvec: the per-vector kernels, threaded
  // across the plan's rows instead of across streams.
  if (batch == 1 && xq == nullptr) {
    execute(x.row(0), y.row(0), pool, scratch);
    return;
  }
  // The whole batch's work amortizes one dispatch, so the threading
  // heuristic scales the per-matvec floor by the batch width.
  const bool threaded = pool != nullptr && options_.threads > 1 &&
                        nnz_ * batch >= options_.min_nnz_for_threading;
  const bool q8_acts = xq != nullptr && int8_weights();
  if (q8_acts) {
    RT_REQUIRE(xq->dim == cols_ && batch <= xq->batch,
               "execute_batch: quantized panel shape mismatch");
  }

  switch (options_.format) {
    case SparseFormat::kDense: {
      if (packed()) {
        if (q8_acts) {
          // Each row chunk runs the panel kernel on its own scratch
          // partition; the chunks' rows are disjoint.
          LreScratch local;
          LreScratch& q8 = scratch != nullptr ? *scratch : local;
          const std::size_t words = q8_scratch_words(batch);
          if (!threaded) {
            q8.prepare_q8(1, words);
            packed_dense_.gemm_rows_q8(*xq, y, batch, 0, rows_,
                                       q8.partition_q8(0));
            return;
          }
          q8.prepare_q8(pool->thread_count(), words);
          pool->parallel_for_indexed(
              rows_, [&](std::size_t chunk, std::size_t begin,
                         std::size_t end) {
                packed_dense_.gemm_rows_q8(*xq, y, batch, begin, end,
                                           q8.partition_q8(chunk));
              });
          return;
        }
        const auto run_rows = [&](std::size_t begin, std::size_t end) {
          packed_dense_.gemm_rows(x, y, batch, begin, end);
        };
        if (!threaded) {
          run_rows(0, rows_);
          return;
        }
        pool->parallel_for(rows_, run_rows);
        return;
      }
      // fp32 dense runs the exact per-vector gemv per stream (bitwise
      // identity by construction), threading across streams. Weight
      // amortization here comes only from cache reuse across the batch
      // loop; the compiled formats that matter (packed/BSPC) stream
      // weights once explicitly.
      const auto run_streams = [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          gemv(dense_, x.row(b), y.row(b));
        }
      };
      if (!threaded) {
        run_streams(0, batch);
        return;
      }
      pool->parallel_for(batch, run_streams);
      return;
    }
    case SparseFormat::kCsr: {
      // Same shape as fp32 dense: per-vector spmv per stream, threaded
      // across streams, so each stream stays bit-identical to execute().
      const auto run_streams = [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          csr_.spmv(x.row(b), y.row(b));
        }
      };
      if (!threaded) {
        run_streams(0, batch);
        return;
      }
      pool->parallel_for(batch, run_streams);
      return;
    }
    case SparseFormat::kBspc: {
      RT_ASSERT(reorder_.has_value(), "BSPC plan lacks a reorder plan");
      for (std::size_t b = 0; b < batch; ++b) {
        std::fill(y.row(b).begin(), y.row(b).end(), 0.0F);
      }
      const ReorderPlan& ro = *reorder_;
      LreScratch local;
      LreScratch& gather = scratch != nullptr ? *scratch : local;
      const std::size_t panel_floats = batch * batch_gather_floats();
      const std::size_t q8_words = q8_scratch_words(batch);
      const auto run_stripes = [&](std::span<const std::uint32_t> stripes,
                                   std::size_t partition) {
        if (packed()) {
          if (q8_acts) {
            packed_bspc_.spmm_stripe_list_q8(*xq, y, batch, stripes,
                                             gather.partition_q8(partition));
          } else {
            packed_bspc_.spmm_stripe_list(x, y, batch, stripes,
                                          gather.partition(partition));
          }
        } else {
          bspc_.spmm_stripe_list(x, y, batch, stripes, options_.lre,
                                 gather.partition(partition));
        }
      };
      if (!threaded) {
        if (q8_acts) {
          gather.prepare_q8(1, q8_words);
        } else {
          gather.prepare(1, panel_floats);
        }
        run_stripes({ro.stripe_order.data(), ro.stripe_order.size()}, 0);
        return;
      }
      // Stripe row sets are disjoint, so the thread partition never
      // changes any y element's accumulation order — per-row results
      // are bitwise independent of the partition.
      if (q8_acts) {
        gather.prepare_q8(ro.thread_ranges.size(), q8_words);
      } else {
        gather.prepare(ro.thread_ranges.size(), panel_floats);
      }
      pool->parallel_for(
          ro.thread_ranges.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
              const auto& [begin, end] = ro.thread_ranges[r];
              run_stripes({ro.stripe_order.data() + begin,
                           static_cast<std::size_t>(end - begin)},
                          r);
            }
          });
      return;
    }
  }
}

std::size_t LayerPlan::nnz() const {
  switch (options_.format) {
    case SparseFormat::kDense:
      return packed() ? packed_dense_.count_nonzero()
                      : dense_.count_nonzero();
    case SparseFormat::kCsr: return csr_.nnz();
    case SparseFormat::kBspc:
      return packed() ? packed_bspc_.nnz() : bspc_.nnz();
  }
  return 0;
}

std::size_t LayerPlan::memory_bytes() const {
  switch (options_.format) {
    case SparseFormat::kDense:
      return packed() ? packed_dense_.memory_bytes()
                      : dense_.size() * options_.value_bytes;
    case SparseFormat::kCsr:
      return csr_.memory_bytes(options_.value_bytes);
    case SparseFormat::kBspc:
      return packed() ? packed_bspc_.memory_bytes()
                      : bspc_.memory_bytes(options_.value_bytes);
  }
  return 0;
}

double LayerPlan::imbalance() const {
  if (options_.format == SparseFormat::kBspc && reorder_.has_value()) {
    return reorder_->imbalance();
  }
  return 1.0;
}

Matrix LayerPlan::to_dense() const {
  switch (options_.format) {
    case SparseFormat::kDense:
      return packed() ? packed_dense_.to_dense() : dense_;
    case SparseFormat::kCsr: return csr_.to_dense();
    case SparseFormat::kBspc:
      return packed() ? packed_bspc_.to_dense() : bspc_.to_dense();
  }
  return Matrix();
}

}  // namespace rtmobile
