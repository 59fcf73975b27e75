// Parity grid for the batched step (the compiled model's one spine).
//
// Contract under test: step_batch gathers the streams' hidden states into
// contiguous panels and drives every weight matrix once per layer per
// step over the whole batch — and that is invisible in the numbers. fp32
// and fp16 output is bit-identical to whole-utterance infer for every
// batch width, sparsity pattern, and batch composition; int8 weights stay
// bitwise because the batched and per-vector kernels share the same dot
// kernels; int8 *activations* (the one mode that changes arithmetic, and
// only at widths above 1) stay within a small quantization bound. infer
// shares the spine, so it is checked against a per-vector recurrence
// rebuilt here from LayerPlan::execute and the gate kernels. The panel's
// stream order is pinned to the caller's states order, so permuting a
// batch never changes any individual stream's logits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "compiler/gru_executor.hpp"
#include "compiler/gru_gates.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stats.hpp"
#include "runtime/streaming_session.hpp"
#include "sparse/block_mask.hpp"
#include "speech/mfcc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/precision.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::StreamingSession;

struct ModelFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
};

ModelFixture make_fixture(std::size_t hidden, std::uint64_t seed,
                          double keep = 0.4) {
  ModelFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, keep);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  return f;
}

std::unique_ptr<CompiledSpeechModel> compile(
    const ModelFixture& f, ThreadPool* pool,
    WeightPrecision precision = WeightPrecision::kFp32,
    ActivationPrecision activation = ActivationPrecision::kFp32) {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = precision;
  options.activation = activation;
  if (pool != nullptr) options.threads = pool->thread_count();
  return std::make_unique<CompiledSpeechModel>(*f.model, f.masks, options);
}

std::vector<Matrix> random_utterances(std::size_t count,
                                      const std::vector<std::size_t>& frames,
                                      std::size_t input_dim,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> utts;
  for (std::size_t s = 0; s < count; ++s) {
    Matrix u(frames[s % frames.size()], input_dim);
    fill_normal(u.span(), rng, 1.0F);
    utts.push_back(std::move(u));
  }
  return utts;
}

/// Streams `utts` through step_batch one frame per round, the way the
/// engine does: each round's batch holds exactly the streams that still
/// have frames, in stream order — so mixed-length batches shrink the
/// compute panel mid-flight, on one set of panels over `pool`. Returns
/// each stream's stacked logits.
std::vector<Matrix> run_streamed(const CompiledSpeechModel& m,
                                 const std::vector<Matrix>& utts,
                                 ThreadPool* pool) {
  const std::size_t classes = m.config().num_classes;
  const std::size_t input_dim = m.config().input_dim;
  std::vector<StreamState> states(utts.size(), m.make_state());
  std::vector<Matrix> out;
  std::size_t max_frames = 0;
  for (const Matrix& u : utts) {
    out.emplace_back(u.rows(), classes);
    max_frames = std::max(max_frames, u.rows());
  }
  Matrix features(utts.size(), input_dim);
  Matrix logits(utts.size(), classes);
  CompiledSpeechModel::Panels panels;
  std::vector<StreamState*> ptrs;
  std::vector<std::size_t> ids;
  for (std::size_t t = 0; t < max_frames; ++t) {
    ptrs.clear();
    ids.clear();
    for (std::size_t s = 0; s < utts.size(); ++s) {
      if (t >= utts[s].rows()) continue;
      std::copy(utts[s].row(t).begin(), utts[s].row(t).end(),
                features.row(ptrs.size()).begin());
      ptrs.push_back(&states[s]);
      ids.push_back(s);
    }
    if (ptrs.empty()) break;
    m.step_batch(features, ptrs, logits, panels, pool);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      std::copy(logits.row(i).begin(), logits.row(i).end(),
                out[ids[i]].row(t).begin());
    }
  }
  return out;
}

// --------------------------------------------------- fp32 parity grid
TEST(FusedStep, Fp32BitIdenticalAcrossBatchWidths) {
  const ModelFixture f = make_fixture(24, 60);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  // Widths: degenerate 1, == pool threads, odd, > pool threads, and
  // past the model's pre-sized panels (they grow once).
  for (const std::size_t width : {1UL, 2UL, 3UL, 5UL, 65UL}) {
    const std::vector<Matrix> utts =
        random_utterances(width, {6}, f.model->config().input_dim, 61);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts, &pool);
    for (std::size_t s = 0; s < width; ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s], &pool))
          << "width " << width << " stream " << s;  // bitwise
    }
  }
}

TEST(FusedStep, PackedWeightsBitIdenticalThroughFusedPath) {
  // fp16 and int8 *weights* share the per-vector dot kernels between the
  // fused and per-stream paths, so they too are bitwise — activation
  // quantization (below) is the only mode allowed to move a bit.
  const ModelFixture f = make_fixture(24, 62);
  ThreadPool pool(2);
  for (const WeightPrecision precision :
       {WeightPrecision::kFp16, WeightPrecision::kInt8PerRow}) {
    const auto fused = compile(f, &pool, precision);
    const std::vector<Matrix> utts =
        random_utterances(4, {5}, f.model->config().input_dim, 63);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts, &pool);
    for (std::size_t s = 0; s < utts.size(); ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s], &pool))
          << to_string(precision) << " stream " << s;
    }
  }
}

TEST(FusedStep, SparsityPatternsStayBitIdentical) {
  ThreadPool pool(2);
  for (const double keep : {0.15, 0.4, 0.8}) {
    const ModelFixture f = make_fixture(24, 64, keep);
    const auto fused = compile(f, &pool);
    const std::vector<Matrix> utts =
        random_utterances(3, {5}, f.model->config().input_dim, 65);
    const std::vector<Matrix> streamed = run_streamed(*fused, utts, &pool);
    for (std::size_t s = 0; s < utts.size(); ++s) {
      EXPECT_EQ(streamed[s], fused->infer(utts[s], &pool))
          << "keep " << keep << " stream " << s;
    }
  }
}

// ------------------------------------------------ int8 activations
TEST(FusedStep, Int8ActivationsWithinQuantizationBound) {
  const ModelFixture f = make_fixture(24, 66);
  ThreadPool pool(2);
  const auto q8 = compile(f, &pool, WeightPrecision::kInt8PerRow,
                          ActivationPrecision::kInt8);
  // Same int8 weights with fp32 activations: bitwise the per-stream
  // result.
  const auto reference = compile(f, &pool, WeightPrecision::kInt8PerRow,
                                 ActivationPrecision::kFp32);
  const std::vector<Matrix> utts =
      random_utterances(4, {6}, f.model->config().input_dim, 67);
  const std::vector<Matrix> actual = run_streamed(*q8, utts, &pool);
  const std::vector<Matrix> expected =
      run_streamed(*reference, utts, &pool);
  for (std::size_t s = 0; s < utts.size(); ++s) {
    const float diff =
        max_abs_diff(actual[s].span(), expected[s].span());
    // The activation grid rounds each panel entry to 1/254 of its
    // stream's max magnitude; GRU activations are tanh/sigmoid-bounded,
    // so the per-logit drift stays far below this.
    EXPECT_LT(diff, 0.05F) << "stream " << s;
    // And the path must actually have engaged: identical bits would
    // mean the quantizer was silently bypassed.
    EXPECT_GT(diff, 0.0F) << "stream " << s;
  }
}

// ------------------------------------------------- panel order pinning
TEST(FusedStep, PanelRowOrderIsPinnedToStatesOrder) {
  // The fused panel's row order is the caller's states order. Two
  // consequences, both bitwise in fp32: repeating the same batch gives
  // the same logits, and permuting the batch leaves every individual
  // stream's logits untouched (its per-vector accumulation order never
  // depends on which panel row it occupies).
  const ModelFixture f = make_fixture(24, 68);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kFrames = 5;
  const std::vector<Matrix> utts =
      random_utterances(kStreams, {kFrames}, f.model->config().input_dim, 69);

  const std::vector<Matrix> first = run_streamed(*fused, utts, &pool);
  const std::vector<Matrix> again = run_streamed(*fused, utts, &pool);
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(first[s], again[s]) << "rerun, stream " << s;
  }

  // Same streams, permuted panel order every round.
  const std::size_t order[kStreams] = {2, 0, 3, 1};
  std::vector<StreamState> states(kStreams, fused->make_state());
  Matrix features(kStreams, f.model->config().input_dim);
  Matrix logits(kStreams, fused->config().num_classes);
  CompiledSpeechModel::Panels panels;
  std::vector<Matrix> permuted(
      kStreams, Matrix(kFrames, fused->config().num_classes));
  for (std::size_t t = 0; t < kFrames; ++t) {
    std::vector<StreamState*> ptrs;
    for (std::size_t i = 0; i < kStreams; ++i) {
      const std::size_t s = order[i];
      std::copy(utts[s].row(t).begin(), utts[s].row(t).end(),
                features.row(i).begin());
      ptrs.push_back(&states[s]);
    }
    fused->step_batch(features, ptrs, logits, panels, &pool);
    for (std::size_t i = 0; i < kStreams; ++i) {
      std::copy(logits.row(i).begin(), logits.row(i).end(),
                permuted[order[i]].row(t).begin());
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(first[s], permuted[s]) << "permuted, stream " << s;
  }
}

// ------------------------------------------- mid-batch width shrinkage
TEST(FusedStep, MidBatchStreamFinishKeepsParity) {
  // Mixed-length batch: streams drop out as their utterances end, so the
  // fused panel narrows round by round (5 -> 1). Every surviving stream
  // must keep bit-identity with its whole-utterance infer.
  const ModelFixture f = make_fixture(24, 70);
  ThreadPool pool(2);
  const auto fused = compile(f, &pool);
  const std::vector<Matrix> utts = random_utterances(
      5, {6, 3, 1, 5, 2}, f.model->config().input_dim, 71);
  const std::vector<Matrix> streamed = run_streamed(*fused, utts, &pool);
  for (std::size_t s = 0; s < utts.size(); ++s) {
    EXPECT_EQ(streamed[s], fused->infer(utts[s], &pool)) << "stream " << s;
  }
}

// ---------------------------------------------------------- width rule
TEST(FusedStep, DispatchFollowsWidthRule) {
  // The batch width is the only dispatch input: width 1 is one stream's
  // matvecs, every wider batch is batched — including widths past the
  // pre-sized panels, which grow instead of falling back.
  const ModelFixture f = make_fixture(16, 72);
  const auto compiled = compile(f, nullptr);
  const std::size_t input_dim = f.model->config().input_dim;
  Matrix features(65, input_dim, 0.1F);
  Matrix logits(65, compiled->config().num_classes);
  CompiledSpeechModel::Panels panels;
  const auto dispatch = [&](std::size_t width) {
    std::vector<StreamState> states(width, compiled->make_state());
    std::vector<StreamState*> ptrs;
    for (StreamState& s : states) ptrs.push_back(&s);
    return compiled->step_batch(features, ptrs, logits, panels);
  };

  EXPECT_FALSE(dispatch(1).fused);
  EXPECT_TRUE(dispatch(2).fused);
  const StepResult wide = dispatch(65);
  EXPECT_TRUE(wide.fused);
  EXPECT_EQ(wide.width, 65U);
}

// ------------------------------------------------- per-vector oracle
/// A per-vector GRU recurrence built outside the compiled model's
/// spine: one LayerPlan per weight (the fixture's masks, dense
/// where a weight has none), six execute() matvecs and the two gate
/// kernels per layer per frame, then FC plus bias.
Matrix per_vector_infer(const ModelFixture& f, const CompilerOptions& options,
                        ThreadPool* pool, const Matrix& features) {
  const auto plan = [&](const Matrix& w, const std::string& name) {
    const auto it = f.masks.find(name);
    if (it == f.masks.end()) {
      CompilerOptions dense = options;
      dense.format = SparseFormat::kDense;
      return LayerPlan::compile(w, nullptr, dense);
    }
    return LayerPlan::compile(w, &it->second, options);
  };
  const ModelConfig& config = f.model->config();
  const std::size_t hidden = config.hidden_dim;
  Matrix current = features;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const GruParams& p = f.model->layer(l);
    const std::string prefix = "gru" + std::to_string(l) + ".";
    const LayerPlan w_z = plan(p.w_z, prefix + "w_z");
    const LayerPlan w_r = plan(p.w_r, prefix + "w_r");
    const LayerPlan w_h = plan(p.w_h, prefix + "w_h");
    const LayerPlan u_z = plan(p.u_z, prefix + "u_z");
    const LayerPlan u_r = plan(p.u_r, prefix + "u_r");
    const LayerPlan u_h = plan(p.u_h, prefix + "u_h");
    Matrix next(current.rows(), hidden);
    Vector h(hidden, 0.0F);
    Vector a(hidden), b(hidden), c(hidden), d(hidden);
    for (std::size_t t = 0; t < current.rows(); ++t) {
      const std::span<const float> x = current.row(t);
      w_z.execute(x, a.span(), pool);
      u_z.execute(h.span(), b.span(), pool);
      w_r.execute(x, c.span(), pool);
      u_r.execute(h.span(), d.span(), pool);
      gru_update_reset_row(a.span(), b.span(), p.b_z.span(), c.span(),
                           d.span(), p.b_r.span(), h.span());
      w_h.execute(x, b.span(), pool);
      u_h.execute(c.span(), d.span(), pool);
      gru_candidate_blend_row(a.span(), b.span(), d.span(), p.b_h.span(),
                              h.span(), next.row(t));
      std::copy(next.row(t).begin(), next.row(t).end(), h.begin());
    }
    current = std::move(next);
  }
  const LayerPlan fc = plan(f.model->fc_weight(), "fc.w");
  Matrix logits(current.rows(), config.num_classes);
  for (std::size_t t = 0; t < current.rows(); ++t) {
    fc.execute(current.row(t), logits.row(t), pool);
    add_inplace(logits.row(t), f.model->fc_bias().span());
  }
  return logits;
}

TEST(FusedStep, InferMatchesPerVectorRecurrence) {
  // infer shares advance_layers with step_batch, so the grid above
  // cannot catch a spine bug that moves both; this oracle does not use
  // the spine. Threading floor 0 so the pooled matvecs really split.
  const ModelFixture f = make_fixture(24, 78);
  const Matrix utt =
      random_utterances(1, {6}, f.model->config().input_dim, 79)[0];
  ThreadPool two(2);
  struct Case {
    const char* name;
    WeightPrecision weights;
    ActivationPrecision activations;
  };
  const std::vector<Case> cases = {
      {"fp32", WeightPrecision::kFp32, ActivationPrecision::kFp32},
      {"fp16", WeightPrecision::kFp16, ActivationPrecision::kFp32},
      {"int8", WeightPrecision::kInt8PerRow, ActivationPrecision::kFp32},
      {"int8+act8", WeightPrecision::kInt8PerRow,
       ActivationPrecision::kInt8},
  };
  for (const Case& c : cases) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two}) {
      CompilerOptions options;
      options.format = SparseFormat::kBspc;
      options.precision = c.weights;
      options.activation = c.activations;
      options.min_nnz_for_threading = 0;
      if (pool != nullptr) options.threads = pool->thread_count();
      const CompiledSpeechModel compiled(*f.model, f.masks, options);
      EXPECT_EQ(compiled.infer(utt, pool),
                per_vector_infer(f, options, pool, utt))
          << c.name << (pool != nullptr ? " pooled" : " inline");  // bitwise
    }
  }
}

TEST(FusedStep, WidthOneKeepsFp32ActivationsUnderInt8) {
  // A width-1 step runs the per-vector kernels on the fp32 row, so an
  // int8+act8 model serving one stream is bitwise its fp32-activation
  // twin.
  const ModelFixture f = make_fixture(24, 80);
  ThreadPool pool(2);
  const auto q8 = compile(f, &pool, WeightPrecision::kInt8PerRow,
                          ActivationPrecision::kInt8);
  const auto fp32_acts = compile(f, &pool, WeightPrecision::kInt8PerRow,
                                 ActivationPrecision::kFp32);
  const std::vector<Matrix> utts =
      random_utterances(1, {6}, f.model->config().input_dim, 81);
  EXPECT_EQ(run_streamed(*q8, utts, &pool)[0],
            run_streamed(*fp32_acts, utts, &pool)[0]);
}

// ------------------------------------------------------- engine level
std::vector<float> random_waveform(std::size_t samples,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

TEST(FusedEngine, MixedLengthStreamsMatchInferAndAccountDispatch) {
  // Four streams of different lengths on one engine: rounds start at
  // width 4 (fused) and end at width 1 (a fallback round: one stream's
  // matvecs). Logits stay bit-identical to whole-utterance
  // infer, and the stats ledger accounts every dispatched round as
  // exactly one of fused/fallback, with the width histogram counting
  // one sample per fused round.
  const ModelFixture f = make_fixture(24, 73);
  ThreadPool pool(2);
  const auto compiled = compile(f, &pool);
  EngineConfig config;
  config.pool = &pool;
  InferenceEngine engine(*compiled, config);
  const std::vector<std::size_t> samples = {7000, 9000, 12000, 16000};
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    waves.push_back(random_waveform(samples[s], 74 + s));
  }
  for (const std::vector<float>& wave : waves) {
    StreamingSession& session = engine.create_session();
    session.push_audio(wave);
    session.finish();
  }
  engine.drain();

  const speech::MfccExtractor extractor(engine.config().mfcc);
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_EQ(engine.session(s).logits(),
              compiled->infer(extractor.extract(waves[s]), &pool))
        << "stream " << s;  // bitwise
  }
  const runtime::RuntimeStats& stats = engine.stats();
  EXPECT_GT(stats.fused_steps, 0U);
  EXPECT_GT(stats.fallback_steps, 0U);  // the width-1 tail rounds
  // Cache off: every counted round dispatched exactly one step_batch.
  EXPECT_EQ(stats.fused_steps + stats.fallback_steps, stats.steps);
  EXPECT_EQ(stats.fused_width.count(), stats.fused_steps);
}

TEST(FusedEngine, CacheHitBurstShrinksPanelAndKeepsParity) {
  // A repeated utterance is served from the prefix cache, so its frames
  // never enter the fused panel — the panel shrinks to the cold streams
  // — and cache-only rounds dispatch no batch at all. Results stay
  // bit-identical to compute throughout.
  const ModelFixture f = make_fixture(24, 75);
  ThreadPool pool(2);
  const auto compiled = compile(f, &pool);
  EngineConfig config;
  config.cache.enabled = true;
  config.pool = &pool;
  InferenceEngine engine(*compiled, config);

  const std::vector<float> repeat_wave = random_waveform(9000, 76);
  const std::vector<float> cold_wave = random_waveform(9000, 77);
  // Two warm-up passes: the cache admits a prefix on its second
  // computation.
  for (int pass = 0; pass < 2; ++pass) {
    StreamingSession& warmup = engine.create_session();
    warmup.push_audio(repeat_wave);
    warmup.finish();
    engine.drain();
    engine.remove_done();
  }

  StreamingSession& hit = engine.create_session();
  StreamingSession& cold = engine.create_session();
  hit.push_audio(repeat_wave);
  cold.push_audio(cold_wave);
  hit.finish();
  cold.finish();
  engine.drain();

  const speech::MfccExtractor extractor(engine.config().mfcc);
  EXPECT_EQ(hit.logits(),
            compiled->infer(extractor.extract(repeat_wave), &pool));
  EXPECT_EQ(cold.logits(),
            compiled->infer(extractor.extract(cold_wave), &pool));
  const runtime::RuntimeStats& stats = engine.stats();
  EXPECT_GT(stats.cache_hits, 0U);
  // Rounds fully served from cache dispatch no batch, so the dispatch
  // ledger undercounts rounds — never overcounts.
  EXPECT_LE(stats.fused_steps + stats.fallback_steps, stats.steps);
  EXPECT_EQ(stats.fused_width.count(), stats.fused_steps);
}

}  // namespace
}  // namespace rtmobile
