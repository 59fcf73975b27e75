// Ablation of the compiler optimizations (paper Sec. IV-B): starting from
// the ESE-style CSR strawman, adds the paper's optimizations one at a time
// on a recurrent-scale matrix and measures real kernel time on this host:
//
//   csr                 unstructured storage, one index per nonzero
//   bspc                compact block format, no reorder, no LRE
//   bspc+reorder        + matrix reorder (pattern grouping, balance)
//   bspc+lre            + redundant load elimination only
//   bspc+reorder+lre    the full RTMobile configuration
//
// Also reports the storage footprint of each format and the thread-scaling
// of the full configuration. On AVX2 builds the LRE kernels run in SIMD
// lanes while the no-LRE kernel stays scalar, so the LRE gap measured
// here includes that SIMD speedup, not only the saved loads.
#include <cstdio>
#include <memory>

#include "compiler/execution_plan.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

struct Variant {
  const char* label;
  SparseFormat format;
  bool reorder;
  bool lre;
};

constexpr Variant kVariants[] = {
    {"csr (ESE-style)", SparseFormat::kCsr, false, false},
    {"bspc", SparseFormat::kBspc, false, false},
    {"bspc+reorder", SparseFormat::kBspc, true, false},
    {"bspc+lre", SparseFormat::kBspc, false, true},
    {"bspc+reorder+lre", SparseFormat::kBspc, true, true},
};

}  // namespace
}  // namespace rtmobile

int main() {
  using namespace rtmobile;
  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kCols = 2048;
  constexpr double kColKeep = 1.0 / 16.0;   // 16x column compression
  constexpr double kRowKeep = 0.5;          // 2x row compression

  Rng rng(31337);
  Matrix weights(kRows, kCols);
  fill_normal(weights.span(), rng, 1.0F);
  // A *skewed* BSP structure (varying per-stripe density) so reorder has
  // imbalance to fix: scale per-stripe energy before masking.
  for (std::size_t r = 0; r < kRows; ++r) {
    const float scale = 0.25F + 3.0F * static_cast<float>(r) / kRows;
    for (std::size_t c = 0; c < kCols; ++c) weights(r, c) *= scale;
  }
  BlockMask mask = block_column_mask(weights, 64, 16, kColKeep);
  apply_row_pruning(weights, kRowKeep, mask);

  Vector x(kCols);
  fill_normal(x.span(), rng, 1.0F);
  Vector y(kRows);

  const std::size_t threads = ThreadPool::default_thread_count();
  ThreadPool pool(threads);

  std::printf("== Compiler-optimization ablation ==\n");
  std::printf(
      "matrix %zux%zu, 16x column + 2x row compression (BSP structure),\n"
      "%zu threads. Times are best-of-3 means over 50 matvecs.\n\n",
      kRows, kCols, threads);

  JsonReport report;
  Table table({"configuration", "time us", "speedup vs csr",
               "storage KB (fp16)", "imbalance"});
  double csr_us = 0.0;
  for (const Variant& variant : kVariants) {
    CompilerOptions options;
    options.format = variant.format;
    options.reorder = variant.reorder;
    options.lre = variant.lre;
    options.threads = threads;
    options.value_bytes = 2;
    const LayerPlan plan = LayerPlan::compile(weights, &mask, options);
    const double time_us = time_best_of_us(
        [&] { plan.execute(x.span(), y.span(), &pool); }, 50, 3);
    if (variant.format == SparseFormat::kCsr) csr_us = time_us;
    table.add_row({variant.label, format_double(time_us, 1),
                   format_double(csr_us / time_us, 2) + "x",
                   format_double(
                       static_cast<double>(plan.memory_bytes()) / 1024.0, 1),
                   format_double(plan.imbalance(), 3)});
    JsonRecord record;
    record.set("experiment", "ablation_compiler");
    record.set("configuration", variant.label);
    record.set("time_us", time_us);
    record.set("speedup_vs_csr", csr_us / time_us);
    record.set("storage_bytes",
               static_cast<std::int64_t>(plan.memory_bytes()));
    report.add(record);
  }
  std::printf("%s\n", table.to_string().c_str());

  // ---- thread scaling of the full configuration -------------------------
  std::printf("thread scaling (bspc+reorder+lre):\n\n");
  Table scaling({"threads", "time us", "scaling"});
  double single_us = 0.0;
  for (const std::size_t t : {1U, 2U, 4U, 8U}) {
    if (t > threads) break;
    CompilerOptions options;
    options.format = SparseFormat::kBspc;
    options.reorder = true;
    options.lre = true;
    options.threads = t;
    const LayerPlan plan = LayerPlan::compile(weights, &mask, options);
    std::unique_ptr<ThreadPool> local_pool;
    if (t > 1) local_pool = std::make_unique<ThreadPool>(t);
    const double time_us = time_best_of_us(
        [&] { plan.execute(x.span(), y.span(), local_pool.get()); }, 50, 3);
    if (t == 1) single_us = time_us;
    scaling.add_row({std::to_string(t), format_double(time_us, 1),
                     format_double(single_us / time_us, 2) + "x"});
    JsonRecord record;
    record.set("experiment", "ablation_threads");
    record.set("threads", static_cast<std::int64_t>(t));
    record.set("time_us", time_us);
    report.add(record);
  }
  std::printf("%s\n", scaling.to_string().c_str());
  report.write_file("ablation_compiler.json");
  return 0;
}
