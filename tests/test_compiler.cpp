// Unit tests for the compiler: reorder pass, execution plans across
// formats/threads, the compiled GRU executor, and the auto-tuner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "compiler/auto_tuner.hpp"
#include "compiler/execution_plan.hpp"
#include "compiler/gru_executor.hpp"
#include "compiler/gru_gates.hpp"
#include "compiler/reorder.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
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

// --------------------------------------------------------------- reorder
TEST(Reorder, StripeOrderIsAPermutation) {
  const Matrix w = random_matrix(32, 32, 1);
  BlockMask mask = block_column_mask(w, 8, 4, 0.25);
  const ReorderPlan plan = reorder_block_mask(mask, 3);
  std::vector<std::uint32_t> sorted = plan.stripe_order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0U);
  EXPECT_EQ(sorted, expected);
}

TEST(Reorder, GroupsMergeIdenticalPatterns) {
  // Hand-build a mask where stripes 0 and 2 share a pattern.
  BlockMask mask(8, 8, 4, 2);
  mask.set_block_cols(0, 0, {0, 1});
  mask.set_block_cols(0, 1, {4});
  mask.set_block_cols(2, 0, {0, 1});
  mask.set_block_cols(2, 1, {4});
  mask.set_block_cols(1, 0, {2});
  mask.set_block_cols(1, 1, {});
  mask.set_block_cols(3, 0, {});
  mask.set_block_cols(3, 1, {5, 6, 7});
  const ReorderPlan plan = reorder_block_mask(mask, 2);
  // Stripes {0,2} must land in one group.
  bool found_merged = false;
  for (const ReorderGroup& group : plan.groups) {
    const std::set<std::uint32_t> members(group.stripes.begin(),
                                          group.stripes.end());
    if (members == std::set<std::uint32_t>{0, 2}) found_merged = true;
  }
  EXPECT_TRUE(found_merged);
  // Heavy groups (3 nnz/row) must come before light ones (1 nnz/row).
  EXPECT_GE(plan.groups.front().nnz_per_row, plan.groups.back().nnz_per_row);
}

TEST(Reorder, ThreadRangesCoverOrderContiguously) {
  const Matrix w = random_matrix(64, 32, 2);
  const BlockMask mask = block_column_mask(w, 16, 4, 0.3);
  for (const std::size_t threads : {1U, 2U, 5U, 16U}) {
    const ReorderPlan plan = reorder_block_mask(mask, threads);
    ASSERT_EQ(plan.thread_ranges.size(), threads);
    std::uint32_t cursor = 0;
    for (const auto& [begin, end] : plan.thread_ranges) {
      EXPECT_EQ(begin, cursor);
      EXPECT_LE(begin, end);
      cursor = end;
    }
    EXPECT_EQ(cursor, plan.stripe_order.size());
  }
}

TEST(Reorder, BalancesBetterThanIdentityOnSkewedMasks) {
  // Skewed structure: stripe 0 is dense-ish, the rest nearly empty. A
  // naive equal-stripe split puts all heavy work on thread 0.
  Matrix w = random_matrix(64, 64, 3);
  BlockMask mask(64, 64, 8, 4);
  for (std::size_t s = 0; s < 8; ++s) {
    for (std::size_t b = 0; b < 4; ++b) {
      std::vector<std::uint32_t> kept;
      const std::size_t stride = (s < 2) ? 1 : 8;  // stripes 0,1 heavy
      for (std::size_t c = mask.col_begin(b); c < mask.col_end(b);
           c += stride) {
        kept.push_back(static_cast<std::uint32_t>(c));
      }
      mask.set_block_cols(s, b, kept);
    }
  }
  const ReorderPlan reordered = reorder_block_mask(mask, 4);
  const ReorderPlan naive = identity_plan(mask, 4);
  EXPECT_LE(reordered.imbalance(), naive.imbalance());
  EXPECT_LT(reordered.imbalance(), 1.8);
}

TEST(Reorder, CsrRowOrderSortsByNnz) {
  Matrix dense(4, 8, 0.0F);
  dense(0, 0) = 1.0F;                       // 1 nnz
  for (int c = 0; c < 5; ++c) dense(1, c) = 1.0F;  // 5 nnz
  for (int c = 0; c < 3; ++c) dense(2, c) = 1.0F;  // 3 nnz
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  const auto order = reorder_csr_rows(csr);
  EXPECT_EQ(order[0], 1U);
  EXPECT_EQ(order[1], 2U);
  EXPECT_EQ(order[2], 0U);
  EXPECT_EQ(order[3], 3U);
}

// --------------------------------------------------------- layer plans
class LayerPlanFormatTest
    : public ::testing::TestWithParam<std::tuple<SparseFormat, bool, bool,
                                                 std::size_t>> {};

TEST_P(LayerPlanFormatTest, ExecuteMatchesDenseOracle) {
  const auto [format, reorder, lre, threads] = GetParam();
  const Matrix w = random_matrix(48, 56, 4);
  BlockMask mask = block_column_mask(w, 6, 7, 0.3);
  apply_row_pruning(w, 0.75, mask);
  Matrix masked = w;
  mask.apply(masked);

  CompilerOptions options;
  options.format = format;
  options.reorder = reorder;
  options.lre = lre;
  options.threads = threads;
  const LayerPlan plan = LayerPlan::compile(
      w, format == SparseFormat::kDense ? nullptr : &mask, options);

  const Vector x = random_vector(56, 5);
  Vector expected(48);
  gemv_naive(format == SparseFormat::kDense ? w : masked, x.span(),
             expected.span());

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  Vector actual(48);
  plan.execute(x.span(), actual.span(), pool.get());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F);
  EXPECT_EQ(plan.to_dense(), format == SparseFormat::kDense ? w : masked);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, LayerPlanFormatTest,
    ::testing::Values(
        std::make_tuple(SparseFormat::kDense, false, false, 1U),
        std::make_tuple(SparseFormat::kDense, false, false, 4U),
        std::make_tuple(SparseFormat::kCsr, false, false, 1U),
        std::make_tuple(SparseFormat::kCsr, false, false, 4U),
        std::make_tuple(SparseFormat::kBspc, true, true, 1U),
        std::make_tuple(SparseFormat::kBspc, true, true, 4U),
        std::make_tuple(SparseFormat::kBspc, false, true, 2U),
        std::make_tuple(SparseFormat::kBspc, true, false, 2U),
        std::make_tuple(SparseFormat::kBspc, false, false, 1U)));

TEST(LayerPlan, BspcRequiresMask) {
  const Matrix w = random_matrix(8, 8, 6);
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  EXPECT_THROW(LayerPlan::compile(w, nullptr, options),
               std::invalid_argument);
}

TEST(LayerPlan, MemoryFootprintOrdering) {
  // dense > csr > bspc for a BSP-structured sparse matrix.
  const Matrix w = random_matrix(128, 128, 7);
  BlockMask mask = block_column_mask(w, 8, 8, 0.1);
  CompilerOptions dense_options;
  dense_options.format = SparseFormat::kDense;
  CompilerOptions csr_options;
  csr_options.format = SparseFormat::kCsr;
  CompilerOptions bspc_options;
  bspc_options.format = SparseFormat::kBspc;
  const auto dense_plan = LayerPlan::compile(w, &mask, dense_options);
  const auto csr_plan = LayerPlan::compile(w, &mask, csr_options);
  const auto bspc_plan = LayerPlan::compile(w, &mask, bspc_options);
  EXPECT_EQ(csr_plan.nnz(), bspc_plan.nnz());
  EXPECT_GT(dense_plan.memory_bytes(), csr_plan.memory_bytes());
  EXPECT_GT(csr_plan.memory_bytes(), bspc_plan.memory_bytes());
}

// ------------------------------------------------------ compiled model
TEST(CompiledModel, MatchesReferenceForwardDense) {
  Rng rng(8);
  SpeechModel model(ModelConfig::scaled(24));
  model.init(rng);
  CompilerOptions options;
  options.format = SparseFormat::kDense;
  const CompiledSpeechModel compiled(model, {}, options);
  Matrix features(6, 39);
  fill_normal(features.span(), rng, 1.0F);
  const Matrix reference = model.forward(features);
  const Matrix fast = compiled.infer(features);
  EXPECT_LT(max_abs_diff(reference.span(), fast.span()), 1e-3F);
}

TEST(CompiledModel, MatchesReferenceForwardBspc) {
  Rng rng(9);
  SpeechModel model(ModelConfig::scaled(32));
  model.init(rng);

  // Prune every GRU weight with a BSP structure, then compare compiled
  // inference against the reference forward on the pruned weights.
  std::map<std::string, BlockMask> masks;
  ParamSet params;
  model.register_params(params);
  for (const std::string& name : model.weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.4);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    masks.emplace(name, std::move(mask));
  }

  Matrix features(5, 39);
  fill_normal(features.span(), rng, 1.0F);
  const Matrix reference = model.forward(features);

  for (const std::size_t threads : {1U, 4U}) {
    CompilerOptions options;
    options.format = SparseFormat::kBspc;
    options.threads = threads;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    const CompiledSpeechModel compiled(model, masks, options);
    const Matrix fast = compiled.infer(features, pool.get());
    EXPECT_LT(max_abs_diff(reference.span(), fast.span()), 1e-3F)
        << "threads=" << threads;
    EXPECT_EQ(compiled.total_nnz(),
              model.nonzero_param_count() -
                  model.fc_bias().size() -
                  2 * 3 * model.config().hidden_dim);
  }
}

TEST(CompiledModel, RunRecurrenceExecutes) {
  Rng rng(10);
  SpeechModel model(ModelConfig::scaled(16));
  model.init(rng);
  CompilerOptions options;
  options.format = SparseFormat::kDense;
  const CompiledSpeechModel compiled(model, {}, options);
  EXPECT_NO_THROW(compiled.run_recurrence(10));
  EXPECT_THROW(compiled.run_recurrence(0), std::invalid_argument);
}

// ---------------------------------------------------------- gate kernels
// The compiled path's gate activations are rational approximations; the
// training reference keeps libm. Both the scalar functions and the
// vectorized row kernels must stay within 1e-6 of libm.
constexpr int kGateSweepSteps = 4'000'000;  // [-20, 20] in steps of 1e-5

float gate_sweep_point(int i) {
  return -20.0F + 40.0F * static_cast<float>(i) / kGateSweepSteps;
}

double abs_error(float approx, double exact) {
  return std::fabs(static_cast<double>(approx) - exact);
}

TEST(GruGates, ScalarActivationsStayWithinOneMicroOfLibm) {
  double worst_tanh = 0.0;
  double worst_sigmoid = 0.0;
  for (int i = 0; i <= kGateSweepSteps; ++i) {
    const float x = gate_sweep_point(i);
    worst_tanh = std::max(worst_tanh, abs_error(gate_tanh(x), std::tanh(x)));
    worst_sigmoid =
        std::max(worst_sigmoid, abs_error(gate_sigmoid(x), sigmoid(x)));
  }
  EXPECT_LE(worst_tanh, 1e-6);
  EXPECT_LE(worst_sigmoid, 1e-6);
}

TEST(GruGates, ScalarActivationLimitsAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(gate_tanh(inf), 1.0F);
  EXPECT_EQ(gate_tanh(-inf), -1.0F);
  EXPECT_EQ(gate_sigmoid(inf), 1.0F);
  EXPECT_EQ(gate_sigmoid(-inf), 0.0F);
  EXPECT_TRUE(std::isnan(gate_tanh(nan)));
  EXPECT_TRUE(std::isnan(gate_tanh(-nan)));
  EXPECT_TRUE(std::isnan(gate_sigmoid(nan)));
  EXPECT_TRUE(std::isnan(gate_sigmoid(-nan)));
  EXPECT_EQ(gate_tanh(0.0F), 0.0F);
  EXPECT_TRUE(std::signbit(gate_tanh(-0.0F)));
}

TEST(GruGates, RowKernelsMatchLibmAndKeepLimits) {
  // Zero recurrent terms and biases reduce the row kernels to plain
  // activations: z = sigmoid(x), r . h = sigmoid(x) with h = 1, and with
  // z = 1 the blend returns tanh(x). The specials sit at odd offsets so
  // they land in vector lanes and in the scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> x;
  for (int i = 0; i <= kGateSweepSteps; i += 7) {
    x.push_back(gate_sweep_point(i));
  }
  const std::size_t specials = x.size();
  for (const float v : {inf, -inf, nan, 0.0F, inf, -inf, nan}) x.push_back(v);
  const std::size_t n = x.size();
  const std::vector<float> zeros(n, 0.0F);
  const std::vector<float> ones(n, 1.0F);

  std::vector<float> z = x;
  std::vector<float> r = x;
  gru_update_reset_row(z, zeros, zeros, r, zeros, zeros, ones);
  std::vector<float> h(n);
  gru_candidate_blend_row(ones, x, zeros, zeros, zeros, h);

  double worst_sigmoid = 0.0;
  double worst_tanh = 0.0;
  for (std::size_t i = 0; i < specials; ++i) {
    worst_sigmoid = std::max(worst_sigmoid, abs_error(z[i], sigmoid(x[i])));
    EXPECT_EQ(r[i], z[i]);
    worst_tanh = std::max(worst_tanh, abs_error(h[i], std::tanh(x[i])));
  }
  EXPECT_LE(worst_sigmoid, 1e-6);
  EXPECT_LE(worst_tanh, 1e-6);
  for (std::size_t i = specials; i < n; ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(z[i]) && std::isnan(r[i]) && std::isnan(h[i]));
    } else {
      EXPECT_EQ(z[i], x[i] > 0.0F ? 1.0F : (x[i] < 0.0F ? 0.0F : 0.5F));
      EXPECT_EQ(h[i], x[i] > 0.0F ? 1.0F : (x[i] < 0.0F ? -1.0F : 0.0F));
    }
  }
}

// ------------------------------------------------------------ auto-tuner
TEST(AutoTuner, ReturnsFeasibleBestCandidate) {
  const Matrix w = random_matrix(64, 64, 11);
  TunerConfig config;
  config.num_c_candidates = {2, 4, 8};
  config.thread_candidates = {1};
  config.num_r = 8;
  config.col_keep_fraction = 0.25;
  config.timing_iters = 3;
  config.timing_repeats = 1;
  const TunerResult result = tune_layer(w, config);
  EXPECT_EQ(result.all.size(), 3U);
  EXPECT_GT(result.best.time_us, 0.0);
  // Best must be the fastest among feasible candidates.
  for (const TunerCandidate& candidate : result.all) {
    EXPECT_GE(candidate.time_us, result.best.time_us * 0.999);
  }
}

TEST(AutoTuner, AccuracyFloorFiltersCandidates) {
  const Matrix w = random_matrix(32, 32, 12);
  TunerConfig config;
  config.num_c_candidates = {4};
  config.thread_candidates = {1};
  config.num_r = 4;
  config.col_keep_fraction = 0.25;
  config.timing_iters = 2;
  config.timing_repeats = 1;
  // Impossible floor: falls back to the highest-energy candidate.
  config.min_energy_retained = 0.9999;
  const TunerResult result = tune_layer(w, config);
  double best_energy = 0.0;
  for (const TunerCandidate& candidate : result.all) {
    best_energy = std::max(best_energy, candidate.energy_retained);
  }
  EXPECT_DOUBLE_EQ(result.best.energy_retained, best_energy);
}

TEST(AutoTuner, ValidatesConfig) {
  const Matrix w = random_matrix(8, 8, 13);
  TunerConfig config;
  config.num_c_candidates = {};
  EXPECT_THROW(tune_layer(w, config), std::invalid_argument);
}

}  // namespace
}  // namespace rtmobile
