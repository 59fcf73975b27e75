// Parity tests for the packed int8/fp16 compute path.
//
// Contract under test: CompilerOptions::precision selects packed weight
// storage (PackedQuantizedBspc / PackedDenseMatrix) whose kernels match
// the dequantize-then-fp32 storage simulation in core/quantize — bit for
// bit on fp16 (conversion is exact and the accumulation order matches),
// and within the int8 grid's rounding slack on int8 — while the default
// fp32 mode stays bit-identical to the unquantized kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "compiler/gru_executor.hpp"
#include "core/quantize.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "sparse/bspc.hpp"
#include "sparse/bspc_quant.hpp"
#include "speech/mfcc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/packed_dense.hpp"
#include "tensor/precision.hpp"
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

/// Applies the storage simulation core/quantize implements to a matrix.
Matrix simulate(const Matrix& weights, WeightPrecision precision) {
  Matrix out = weights;
  switch (precision) {
    case WeightPrecision::kFp32: break;
    case WeightPrecision::kFp16: quantize_fp16(out); break;
    case WeightPrecision::kInt8PerTensor:
      quantize_int8(out, /*per_row=*/false);
      break;
    case WeightPrecision::kInt8PerRow:
      quantize_int8(out, /*per_row=*/true);
      break;
  }
  return out;
}

struct BspcCase {
  Matrix masked;     // weights with the mask applied
  BlockMask mask;
  BspcMatrix bspc;   // fp32 packing of `masked`
};

BspcCase make_bspc_case(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  Matrix w = random_matrix(rows, cols, seed);
  BlockMask mask = block_column_mask(w, 6, 4, 0.4);
  apply_row_pruning(w, 0.8, mask);
  mask.apply(w);
  BspcMatrix bspc = BspcMatrix::from_dense(w, mask);
  return {std::move(w), std::move(mask), std::move(bspc)};
}

// ------------------------------------------------- packed BSPC kernels
TEST(PackedBspc, DequantizationMatchesSimulationExactly) {
  const BspcCase c = make_bspc_case(48, 56, 21);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerTensor,
        WeightPrecision::kInt8PerRow}) {
    const PackedQuantizedBspc packed =
        PackedQuantizedBspc::pack(c.bspc, precision);
    // Same scales, same rounding: the packed format's effective weights
    // must equal the simulation's dequantized matrix bit for bit.
    EXPECT_EQ(packed.to_dense(), simulate(c.masked, precision))
        << to_string(precision);
    EXPECT_EQ(packed.nnz(), c.bspc.nnz());
  }
}

TEST(PackedBspc, Fp16SpmvBitIdenticalToSimulatedFp32Kernel) {
  const BspcCase c = make_bspc_case(48, 56, 22);
  const Matrix simulated = simulate(c.masked, WeightPrecision::kFp16);
  const BspcMatrix simulated_bspc =
      BspcMatrix::from_dense(simulated, c.mask);
  const PackedQuantizedBspc packed =
      PackedQuantizedBspc::pack(c.bspc, WeightPrecision::kFp16);

  const Vector x = random_vector(56, 23);
  Vector expected(48);
  Vector actual(48);
  simulated_bspc.spmv(x.span(), expected.span());
  packed.spmv(x.span(), actual.span());
  EXPECT_EQ(expected, actual);  // bitwise
}

TEST(PackedBspc, Int8SpmvWithinGridRoundingSlack) {
  const BspcCase c = make_bspc_case(48, 56, 24);
  const Vector x = random_vector(56, 25);
  for (const WeightPrecision precision :
       {WeightPrecision::kInt8PerTensor, WeightPrecision::kInt8PerRow}) {
    const PackedQuantizedBspc packed =
        PackedQuantizedBspc::pack(c.bspc, precision);
    // vs the simulation: same effective weights, so only accumulation
    // reassociation (the scale factors out of the block partial sums)
    // separates the two.
    const BspcMatrix simulated_bspc =
        BspcMatrix::from_dense(simulate(c.masked, precision), c.mask);
    Vector simulated_y(48);
    Vector packed_y(48);
    simulated_bspc.spmv(x.span(), simulated_y.span());
    packed.spmv(x.span(), packed_y.span());
    EXPECT_LT(max_abs_diff(simulated_y.span(), packed_y.span()), 1e-4F)
        << to_string(precision);

    // vs the unquantized fp32 kernel: bounded by the grid's worst-case
    // per-weight error (int8_step) times the L1 mass of x.
    Vector exact_y(48);
    c.bspc.spmv(x.span(), exact_y.span());
    float l1 = 0.0F;
    for (const float v : x.span()) l1 += std::fabs(v);
    const float bound = int8_step(c.masked) * 0.5F * l1 + 1e-4F;
    EXPECT_LT(max_abs_diff(exact_y.span(), packed_y.span()), bound)
        << to_string(precision);
  }
}

TEST(PackedBspc, NoLreAndStripeListMatchLre) {
  const BspcCase c = make_bspc_case(36, 40, 26);
  const PackedQuantizedBspc packed =
      PackedQuantizedBspc::pack(c.bspc, WeightPrecision::kInt8PerRow);
  const Vector x = random_vector(40, 27);
  Vector with_lre(36);
  packed.spmv(x.span(), with_lre.span());

  std::vector<std::uint32_t> stripes(packed.num_stripes());
  for (std::size_t s = 0; s < stripes.size(); ++s) {
    stripes[s] = static_cast<std::uint32_t>(s);
  }
  Vector no_lre(36, 0.0F);
  packed.spmv_stripe_list(x.span(), no_lre.span(), stripes,
                          /*use_lre=*/false);
  EXPECT_EQ(with_lre, no_lre);  // same values, same order -> bitwise
}

TEST(PackedBspc, SpmmBitIdenticalToPerVectorSpmv) {
  const BspcCase c = make_bspc_case(32, 44, 28);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerRow}) {
    const PackedQuantizedBspc packed =
        PackedQuantizedBspc::pack(c.bspc, precision);
    constexpr std::size_t kBatch = 3;
    Matrix x(kBatch + 1, 44);  // extra trailing row: grow-only buffers
    Rng rng(29);
    fill_normal(x.span(), rng, 1.0F);
    Matrix y(kBatch + 1, 32);  // zeroed: the stripe-list form accumulates
    std::vector<std::uint32_t> stripes(packed.num_stripes());
    for (std::size_t s = 0; s < stripes.size(); ++s) {
      stripes[s] = static_cast<std::uint32_t>(s);
    }
    std::vector<float> gather(kBatch * packed.max_block_cols());
    packed.spmm_stripe_list(x, y, kBatch, stripes,
                            {gather.data(), gather.size()});
    for (std::size_t b = 0; b < kBatch; ++b) {
      Vector expected(32);
      packed.spmv(x.row(b), expected.span());
      EXPECT_EQ(std::vector<float>(expected.begin(), expected.end()),
                std::vector<float>(y.row(b).begin(), y.row(b).end()))
          << to_string(precision) << " rhs " << b;
    }
  }
}

// ------------------------------------------------- packed dense kernels
TEST(PackedDense, DequantizationAndGemvMatchSimulation) {
  const Matrix w = random_matrix(40, 52, 30);
  const Vector x = random_vector(52, 31);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerTensor,
        WeightPrecision::kInt8PerRow}) {
    const PackedDenseMatrix packed = PackedDenseMatrix::pack(w, precision);
    const Matrix simulated = simulate(w, precision);
    EXPECT_EQ(packed.to_dense(), simulated) << to_string(precision);

    Vector expected(40);
    Vector actual(40);
    gemv(simulated, x.span(), expected.span());
    packed.gemv(x.span(), actual.span());
    if (precision == WeightPrecision::kFp16) {
      EXPECT_EQ(expected, actual);  // conversion exact, same order
    } else {
      EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F)
          << to_string(precision);
    }
  }
}

// ------------------------------------------------- fp16 conversion
TEST(Fp16Conversion, FastPathMatchesReferenceForAllPatterns) {
  // fp16_bits_to_float (the kernels' conversion) must agree with the
  // reference fp16_to_float on every one of the 65536 bit patterns —
  // that exactness is what makes the packed fp16 kernels bit-identical
  // to the storage simulation.
  for (std::uint32_t bits = 0; bits <= 0xFFFFU; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float fast = fp16_bits_to_float(h);
    const float reference = fp16_to_float(h);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fast),
              std::bit_cast<std::uint32_t>(reference))
        << "half bits 0x" << std::hex << bits;
  }
}

// --------------------------------------- int8 symmetric-grid regression
TEST(Int8Grid, NegativeMaxTensorRoundTripsWithoutOverflow) {
  // A tensor whose extreme value is negative: the extreme code must land
  // on -127, never the unrepresentable -128, and no round-tripped value
  // may exceed the original magnitude.
  Matrix w(2, 3, std::vector<float>{-5.0F, -4.99F, -0.3F,
                                    -2.5F, -1.0F, -4.999F});
  const Matrix original = w;
  quantize_int8(w, /*per_row=*/false);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.span()[i]), 5.0F + 1e-6F);
    EXPECT_LE(std::fabs(w.span()[i] - original.span()[i]),
              int8_step(original) * 0.5F + 1e-6F);
  }
  EXPECT_FLOAT_EQ(w(0, 0), -5.0F);  // the extreme hits code -127 exactly

  // Same grid through the packed representation.
  const PackedDenseMatrix packed =
      PackedDenseMatrix::pack(original, WeightPrecision::kInt8PerTensor);
  EXPECT_EQ(packed.to_dense(), w);
}

TEST(Int8Grid, AllZeroRowPacksToZero) {
  Matrix w(3, 4, 0.0F);
  w(0, 1) = 2.0F;  // rows 1, 2 stay all-zero (scale 0 must not divide)
  const PackedDenseMatrix packed =
      PackedDenseMatrix::pack(w, WeightPrecision::kInt8PerRow);
  EXPECT_EQ(packed.to_dense(), w);
}

// ------------------------------------------------- layer plan dispatch
TEST(LayerPlanPrecision, DefaultIsFp32AndBitIdenticalToRawKernels) {
  EXPECT_EQ(CompilerOptions{}.precision, WeightPrecision::kFp32);
  const BspcCase c = make_bspc_case(48, 56, 32);
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.reorder = false;  // stripe order 0..n-1, same as raw spmv
  const LayerPlan plan = LayerPlan::compile(c.masked, &c.mask, options);
  const Vector x = random_vector(56, 33);
  Vector from_plan(48);
  Vector from_bspc(48);
  plan.execute(x.span(), from_plan.span());
  c.bspc.spmv(x.span(), from_bspc.span());
  EXPECT_EQ(from_plan, from_bspc);  // bitwise: fp32 path untouched
}

TEST(LayerPlanPrecision, PackedPlansMatchOracleAcrossThreads) {
  const BspcCase c = make_bspc_case(48, 56, 34);
  const Vector x = random_vector(56, 35);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerTensor,
        WeightPrecision::kInt8PerRow}) {
    for (const std::size_t threads : {1U, 4U}) {
      CompilerOptions options;
      options.format = SparseFormat::kBspc;
      options.threads = threads;
      options.precision = precision;
      options.min_nnz_for_threading = 0;  // force the threaded path
      const LayerPlan plan = LayerPlan::compile(c.masked, &c.mask, options);
      EXPECT_EQ(plan.to_dense(), simulate(c.masked, precision));

      Vector expected(48);
      gemv_naive(plan.to_dense(), x.span(), expected.span());
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      Vector actual(48);
      plan.execute(x.span(), actual.span(), pool.get());
      EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F)
          << to_string(precision) << " threads=" << threads;
    }
  }
}

TEST(LayerPlanPrecision, PackedStorageShrinksAndCsrRejectsPacked) {
  const BspcCase c = make_bspc_case(64, 64, 36);
  CompilerOptions fp32;
  fp32.format = SparseFormat::kBspc;
  CompilerOptions fp16 = fp32;
  fp16.precision = WeightPrecision::kFp16;
  CompilerOptions int8 = fp32;
  int8.precision = WeightPrecision::kInt8PerRow;
  const auto fp32_plan = LayerPlan::compile(c.masked, &c.mask, fp32);
  const auto fp16_plan = LayerPlan::compile(c.masked, &c.mask, fp16);
  const auto int8_plan = LayerPlan::compile(c.masked, &c.mask, int8);
  EXPECT_GT(fp32_plan.memory_bytes(), fp16_plan.memory_bytes());
  EXPECT_GT(fp16_plan.memory_bytes(), int8_plan.memory_bytes());

  CompilerOptions csr;
  csr.format = SparseFormat::kCsr;
  csr.precision = WeightPrecision::kInt8PerTensor;
  EXPECT_THROW(LayerPlan::compile(c.masked, &c.mask, csr),
               std::invalid_argument);
}

// ------------------------------------------------ compiled model parity
struct QuantModelFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
};

QuantModelFixture make_model_fixture(std::size_t hidden,
                                     std::uint64_t seed) {
  QuantModelFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.4);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  return f;
}

TEST(CompiledModelPrecision, PackedInferMatchesSimulatedModel) {
  const QuantModelFixture f = make_model_fixture(32, 40);
  Rng rng(41);
  Matrix features(6, 39);
  fill_normal(features.span(), rng, 1.0F);

  CompilerOptions base;
  base.format = SparseFormat::kBspc;
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerTensor,
        WeightPrecision::kInt8PerRow}) {
    // Path A: round every weight through the grid, run the fp32 kernels.
    SpeechModel simulated = *f.model;
    quantize_model(simulated, precision);
    const CompiledSpeechModel compiled_sim(simulated, f.masks, base);
    // Path B: compile the unquantized model with packed storage.
    CompilerOptions packed_options = base;
    packed_options.precision = precision;
    const CompiledSpeechModel compiled_packed(*f.model, f.masks,
                                              packed_options);
    EXPECT_LT(compiled_packed.total_memory_bytes(),
              compiled_sim.total_memory_bytes());

    const Matrix sim_logits = compiled_sim.infer(features);
    const Matrix packed_logits = compiled_packed.infer(features);
    if (precision == WeightPrecision::kFp16) {
      EXPECT_EQ(sim_logits, packed_logits);  // bitwise
    } else {
      EXPECT_LT(max_abs_diff(sim_logits.span(), packed_logits.span()),
                1e-3F)
          << to_string(precision);
    }
  }
}

TEST(CompiledModelPrecision, StepBatchBitIdenticalToInferOnPackedModel) {
  const QuantModelFixture f = make_model_fixture(24, 42);
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = WeightPrecision::kInt8PerRow;
  ThreadPool pool(2);
  const CompiledSpeechModel compiled(*f.model, f.masks, options);

  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kFrames = 5;
  Rng rng(43);
  std::vector<Matrix> utterances;
  for (std::size_t s = 0; s < kStreams; ++s) {
    Matrix u(kFrames, 39);
    fill_normal(u.span(), rng, 1.0F);
    utterances.push_back(std::move(u));
  }

  std::vector<StreamState> states(kStreams, compiled.make_state());
  std::vector<StreamState*> state_ptrs;
  for (StreamState& s : states) state_ptrs.push_back(&s);
  Matrix step_features(kStreams, 39);
  Matrix step_logits(kStreams, compiled.config().num_classes);
  CompiledSpeechModel::Panels panels;
  std::vector<Matrix> streamed(
      kStreams, Matrix(kFrames, compiled.config().num_classes));
  for (std::size_t t = 0; t < kFrames; ++t) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      std::copy(utterances[s].row(t).begin(), utterances[s].row(t).end(),
                step_features.row(s).begin());
    }
    compiled.step_batch(step_features, state_ptrs, step_logits, panels,
                        &pool);
    for (std::size_t s = 0; s < kStreams; ++s) {
      std::copy(step_logits.row(s).begin(), step_logits.row(s).end(),
                streamed[s].row(t).begin());
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(streamed[s], compiled.infer(utterances[s], &pool))
        << "stream " << s;
  }
}

// ------------------------------------------------------- sharded serving
TEST(ShardedPrecision, Int8ShardsServeBitIdenticalLogitsAndShrinkWeights) {
  const QuantModelFixture f = make_model_fixture(24, 44);
  speech::MfccConfig mfcc;
  mfcc.cepstral_mean_norm = false;

  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = WeightPrecision::kInt8PerRow;
  const CompiledSpeechModel reference(*f.model, f.masks, options);

  serve::ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine.mfcc = mfcc;
  serve::ShardedEngine engine(*f.model, f.masks, options, config);

  Rng rng(45);
  std::vector<float> wave(16000);
  for (float& s : wave) s = 0.1F * rng.normal();
  const Matrix expected =
      reference.infer(speech::MfccExtractor(mfcc).extract(wave));

  const serve::StreamHandle on_shard0 = engine.open_stream();
  const serve::StreamHandle on_shard1 = engine.open_stream();
  EXPECT_NE(engine.stream_shard(on_shard0), engine.stream_shard(on_shard1));
  for (const serve::StreamHandle h : {on_shard0, on_shard1}) {
    ASSERT_TRUE(engine.submit_audio(h, wave));
    ASSERT_TRUE(engine.finish_stream(h));
  }
  engine.drain();
  EXPECT_EQ(engine.stream_logits(on_shard0), expected);  // bitwise
  EXPECT_EQ(engine.stream_logits(on_shard1), expected);  // bitwise

  // The fleet view must report the quantized replicas' true (smaller)
  // weight footprint.
  serve::ShardedEngine fp32_engine(
      *f.model, f.masks,
      [&] {
        CompilerOptions o = options;
        o.precision = WeightPrecision::kFp32;
        return o;
      }(),
      config);
  // At this toy size the 4-byte index metadata dominates, so assert the
  // direction, not the asymptotic 4x ratio.
  EXPECT_GT(engine.stats().weight_bytes, 0U);
  EXPECT_LT(engine.stats().weight_bytes, fp32_engine.stats().weight_bytes);
}

}  // namespace
}  // namespace rtmobile
