// Tests for the batched streaming runtime: incremental MFCC equality with
// the batch extractor, chunked streaming inference equality with
// whole-utterance CompiledSpeechModel::infer, batched multi-session
// equality with independent single-session runs, and the stats collector.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stats.hpp"
#include "runtime/streaming_session.hpp"
#include "speech/mfcc.hpp"
#include "speech/streaming_mfcc.hpp"
#include "sparse/block_mask.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::StreamingSession;
using speech::MfccConfig;
using speech::MfccExtractor;
using speech::StreamingMfcc;

std::vector<float> random_waveform(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

MfccConfig streaming_mfcc_config(bool deltas = true) {
  MfccConfig config;
  config.cepstral_mean_norm = false;  // whole-utterance; cannot stream
  config.add_deltas = deltas;
  return config;
}

/// Pushes `wave` into `mfcc` in chunks of `chunk` samples.
void push_chunked(StreamingMfcc& mfcc, std::span<const float> wave,
                  std::size_t chunk) {
  for (std::size_t pos = 0; pos < wave.size(); pos += chunk) {
    mfcc.push(wave.subspan(pos, std::min(chunk, wave.size() - pos)));
  }
  mfcc.finish();
}

/// True when `row` holds the same floats as `want`, bit for bit.
bool same_bits(std::span<const float> row, std::span<const float> want) {
  return row.size() == want.size() &&
         std::memcmp(row.data(), want.data(), row.size_bytes()) == 0;
}

/// Moves every feature frame `session` has queued into `out` (no model
/// step: the front end's output as the engine would see it).
void take_frames(StreamingSession& session,
                 std::vector<std::vector<float>>& out) {
  while (session.frame_ready()) {
    const std::span<const float> frame = session.front_frame();
    out.emplace_back(frame.begin(), frame.end());
    session.pop_frame();
  }
}

/// Checks `frames` against the rows of `batch` bit for bit.
void expect_batch_rows(const std::vector<std::vector<float>>& frames,
                       const Matrix& batch) {
  ASSERT_EQ(frames.size(), batch.rows());
  for (std::size_t t = 0; t < frames.size(); ++t) {
    ASSERT_TRUE(same_bits(frames[t], batch.row(t))) << "frame " << t;
  }
}

/// A small BSP-pruned compiled model plus its pool, for streaming tests.
struct TestDeployment {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<SpeechModel> model;
  std::unique_ptr<CompiledSpeechModel> compiled;
};

TestDeployment make_deployment(std::size_t hidden, std::size_t threads,
                               std::uint64_t seed) {
  TestDeployment d;
  Rng rng(seed);
  ModelConfig config = ModelConfig::scaled(hidden);
  d.model = std::make_unique<SpeechModel>(config);
  d.model->init(rng);

  std::map<std::string, BlockMask> masks;
  ParamSet params;
  d.model->register_params(params);
  for (const std::string& name : d.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    masks.emplace(name, std::move(mask));
  }

  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.threads = threads;
  if (threads > 1) d.pool = std::make_unique<ThreadPool>(threads);
  d.compiled = std::make_unique<CompiledSpeechModel>(*d.model, masks,
                                                     options);
  return d;
}

// ------------------------------------------------------- streaming MFCC
TEST(StreamingMfcc, MatchesBatchExtractionAcrossChunkSizes) {
  const MfccConfig config = streaming_mfcc_config();
  const MfccExtractor extractor(config);
  const std::vector<float> wave = random_waveform(8000 + 123, 42);
  const Matrix batch = extractor.extract(wave);

  for (const std::size_t chunk : {1UL, 160UL, 400UL, 1601UL, 8123UL}) {
    StreamingMfcc streaming(config);
    push_chunked(streaming, wave, chunk);
    const Matrix streamed = streaming.pop_ready();
    ASSERT_EQ(streamed.rows(), batch.rows()) << "chunk=" << chunk;
    ASSERT_EQ(streamed.cols(), batch.cols()) << "chunk=" << chunk;
    EXPECT_EQ(streamed, batch) << "chunk=" << chunk;  // bitwise
  }
}

TEST(StreamingMfcc, MidStreamFramesAreFinal) {
  const MfccConfig config = streaming_mfcc_config();
  const MfccExtractor extractor(config);
  const std::vector<float> wave = random_waveform(6400, 7);
  const Matrix batch = extractor.extract(wave);

  // Pop eagerly after every chunk; concatenation must equal the batch
  // result (no mid-stream row may change once emitted).
  StreamingMfcc streaming(config);
  std::vector<Matrix> pieces;
  for (std::size_t pos = 0; pos < wave.size(); pos += 555) {
    streaming.push(std::span<const float>(wave).subspan(
        pos, std::min<std::size_t>(555, wave.size() - pos)));
    pieces.push_back(streaming.pop_ready());
  }
  streaming.finish();
  pieces.push_back(streaming.pop_ready());

  std::size_t row = 0;
  for (const Matrix& piece : pieces) {
    for (std::size_t t = 0; t < piece.rows(); ++t, ++row) {
      ASSERT_LT(row, batch.rows());
      EXPECT_EQ(0.0F, max_abs_diff(piece.row(t), batch.row(row)))
          << "row " << row;
    }
  }
  EXPECT_EQ(row, batch.rows());
}

TEST(StreamingMfcc, WithoutDeltasEmitsImmediately) {
  const MfccConfig config = streaming_mfcc_config(/*deltas=*/false);
  StreamingMfcc streaming(config);
  const std::vector<float> wave = random_waveform(1200, 3);
  streaming.push(wave);
  // 1200 samples = 25 ms + 5 hops -> 6 complete frames, all final.
  EXPECT_EQ(streaming.ready_frames(), 6U);
  const Matrix rows = streaming.pop_ready();
  EXPECT_EQ(rows.rows(), 6U);
  EXPECT_EQ(rows.cols(), config.num_cepstra);
}

TEST(StreamingMfcc, DeltaLookaheadHoldsBackTail) {
  const MfccConfig config = streaming_mfcc_config();
  StreamingMfcc streaming(config);
  streaming.push(random_waveform(1200, 4));  // 6 frames
  EXPECT_EQ(streaming.total_frames(), 6U);
  EXPECT_EQ(streaming.ready_frames(), 2U);  // 4 held for dd lookahead
  streaming.finish();
  EXPECT_EQ(streaming.ready_frames(), 6U);
}

TEST(StreamingMfcc, HandlesShiftLargerThanFrameLength) {
  // Sparse framing (gaps between windows) stressed the buffer-compaction
  // path: the next window starts beyond the samples received so far.
  MfccConfig config = streaming_mfcc_config();
  config.frame_length = 256;
  config.frame_shift = 700;
  config.fft_size = 256;
  const MfccExtractor extractor(config);
  const std::vector<float> wave = random_waveform(5000, 21);
  const Matrix batch = extractor.extract(wave);

  for (const std::size_t chunk : {37UL, 700UL, 5000UL}) {
    StreamingMfcc streaming(config);
    push_chunked(streaming, wave, chunk);
    const Matrix streamed = streaming.pop_ready();
    EXPECT_EQ(streamed, batch) << "chunk=" << chunk;
  }
}

TEST(StreamingMfcc, LongStreamHoldsBoundedRowsAndMatchesBatch) {
  // 30 s pushed in 10 ms chunks and popped as it goes, as a serving
  // session does: every row stays bitwise equal to batch extraction,
  // and the base cepstra held stay a few Δ/ΔΔ windows (9 rows) deep
  // instead of growing to all 2998 frames.
  const MfccConfig config = streaming_mfcc_config();
  const std::vector<float> wave = random_waveform(30 * 16000, 33);
  const Matrix batch = MfccExtractor(config).extract(wave);

  StreamingMfcc streaming(config);
  std::vector<float> row(streaming.feature_dim());
  std::size_t t = 0;
  std::size_t max_retained = 0;
  const auto pop_all = [&] {
    while (streaming.pop_row(row)) {
      ASSERT_LT(t, batch.rows());
      ASSERT_TRUE(same_bits(row, batch.row(t))) << "row " << t;
      ++t;
    }
  };
  for (std::size_t pos = 0; pos < wave.size(); pos += 160) {
    streaming.push(std::span<const float>(wave).subspan(pos, 160));
    max_retained = std::max(max_retained, streaming.retained_frames());
    pop_all();
  }
  streaming.finish();
  pop_all();
  EXPECT_EQ(t, batch.rows());
  EXPECT_LE(max_retained, 32U);
}

TEST(StreamingMfcc, RejectsCepstralMeanNorm) {
  MfccConfig config;
  config.cepstral_mean_norm = true;
  EXPECT_THROW(StreamingMfcc{config}, std::invalid_argument);
}

// ------------------------------------------------- session vs utterance
TEST(StreamingSession, ChunkedLogitsMatchWholeUtteranceInfer) {
  const MfccConfig mfcc = streaming_mfcc_config();
  const std::vector<float> wave = random_waveform(16000, 11);  // 1 s
  const Matrix features = MfccExtractor(mfcc).extract(wave);

  for (const std::size_t threads : {1UL, 4UL}) {
    TestDeployment d = make_deployment(32, threads, 100 + threads);
    const Matrix reference = d.compiled->infer(features, d.pool.get());

    EngineConfig config;
    config.mfcc = mfcc;
    config.pool = d.pool.get();
    InferenceEngine engine(*d.compiled, config);
    StreamingSession& session = engine.create_session();
    for (std::size_t pos = 0; pos < wave.size(); pos += 1600) {  // 100 ms
      session.push_audio(std::span<const float>(wave).subspan(
          pos, std::min<std::size_t>(1600, wave.size() - pos)));
      engine.drain();  // interleave compute with arrival
    }
    session.finish();
    engine.drain();

    ASSERT_TRUE(session.done());
    const Matrix streamed = session.logits();
    ASSERT_EQ(streamed.rows(), reference.rows());
    EXPECT_EQ(streamed, reference) << "threads=" << threads;  // bitwise
  }
}

TEST(InferenceEngine, SessionsShareTheEngineFrontEnd) {
  // Both sessions run the engine's one extractor. Closing one mid-stream
  // leaves the other's features bitwise equal to batch extraction.
  const MfccConfig mfcc = streaming_mfcc_config();
  TestDeployment d = make_deployment(16, 1, 61);
  EngineConfig config;
  config.mfcc = mfcc;
  InferenceEngine engine(*d.compiled, config);
  StreamingSession& a = engine.create_session();
  StreamingSession& b = engine.create_session();
  EXPECT_EQ(&a.front_end(), &engine.front_end());
  EXPECT_EQ(&b.front_end(), &engine.front_end());

  const std::vector<float> wave_a = random_waveform(16000, 62);
  const std::vector<float> wave_b = random_waveform(12000, 63);
  std::vector<std::vector<float>> frames_a;
  std::vector<std::vector<float>> frames_b;
  for (std::size_t pos = 0; pos < wave_b.size(); pos += 160) {
    if (pos == 8000) {  // close a mid-stream
      (void)engine.release_session(&a);
      ASSERT_EQ(engine.session_count(), 1U);
    }
    if (pos < 8000) {
      a.push_audio(std::span<const float>(wave_a).subspan(pos, 160));
      take_frames(a, frames_a);
    }
    b.push_audio(std::span<const float>(wave_b).subspan(pos, 160));
    take_frames(b, frames_b);
  }
  b.finish();
  take_frames(b, frames_b);
  expect_batch_rows(frames_b, MfccExtractor(mfcc).extract(wave_b));
  EXPECT_GT(frames_a.size(), 0U);
}

TEST(InferenceEngine, MigratedSessionKeepsItsFrontEndAlive) {
  // A session released from an engine and adopted by another keeps the
  // tables it was built on, even after the first engine is destroyed.
  const MfccConfig mfcc = streaming_mfcc_config();
  TestDeployment d = make_deployment(16, 1, 64);
  EngineConfig config;
  config.mfcc = mfcc;
  const std::vector<float> wave = random_waveform(12000, 65);
  std::vector<std::vector<float>> frames;
  std::unique_ptr<StreamingSession> moving;
  std::size_t pos = 0;
  {
    InferenceEngine source(*d.compiled, config);
    StreamingSession& session = source.create_session();
    for (; pos < 6000; pos += 160) {
      session.push_audio(std::span<const float>(wave).subspan(pos, 160));
      take_frames(session, frames);
    }
    moving = source.release_session(&session);
  }
  InferenceEngine target(*d.compiled, config);
  StreamingSession& session = target.adopt_session(std::move(moving));
  EXPECT_NE(&session.front_end(), &target.front_end());
  for (; pos < wave.size(); pos += 160) {
    session.push_audio(std::span<const float>(wave).subspan(
        pos, std::min<std::size_t>(160, wave.size() - pos)));
    take_frames(session, frames);
  }
  session.finish();
  take_frames(session, frames);
  expect_batch_rows(frames, MfccExtractor(mfcc).extract(wave));
}

TEST(InferenceEngine, AdoptRejectsASessionOfAnotherModel) {
  // A session keeps the compiled model it was created on, so only an
  // engine serving that very model may adopt it — even an identical
  // compile of the same weights is another model.
  TestDeployment a = make_deployment(16, 1, 66);
  TestDeployment b = make_deployment(16, 1, 66);
  EngineConfig config;
  config.mfcc = streaming_mfcc_config();
  InferenceEngine source(*a.compiled, config);
  InferenceEngine target(*b.compiled, config);
  StreamingSession& session = source.create_session();
  EXPECT_THROW((void)target.adopt_session(source.release_session(&session)),
               std::invalid_argument);
  EXPECT_EQ(target.session_count(), 0U);
}

// ------------------------------------------------- batched multi-stream
TEST(InferenceEngine, BatchedSessionsMatchIndependentRuns) {
  constexpr std::size_t kStreams = 5;
  const MfccConfig mfcc = streaming_mfcc_config();
  TestDeployment d = make_deployment(24, 4, 55);

  std::vector<std::vector<float>> waves;
  std::vector<Matrix> references;
  for (std::size_t s = 0; s < kStreams; ++s) {
    // Different lengths so streams finish at different times.
    waves.push_back(random_waveform(8000 + 1234 * s, 200 + s));
    references.push_back(d.compiled->infer(
        MfccExtractor(mfcc).extract(waves.back()), d.pool.get()));
  }

  EngineConfig config;
  config.mfcc = mfcc;
  config.pool = d.pool.get();
  InferenceEngine engine(*d.compiled, config);
  for (std::size_t s = 0; s < kStreams; ++s) engine.create_session();

  // Feed streams unevenly (different chunk sizes), pumping as we go.
  std::vector<std::size_t> positions(kStreams, 0);
  bool any_pending = true;
  while (any_pending) {
    any_pending = false;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t chunk = 800 + 160 * s;
      if (positions[s] < waves[s].size()) {
        const std::size_t n =
            std::min(chunk, waves[s].size() - positions[s]);
        engine.session(s).push_audio(
            std::span<const float>(waves[s]).subspan(positions[s], n));
        positions[s] += n;
        if (positions[s] == waves[s].size()) engine.session(s).finish();
        any_pending = any_pending || positions[s] < waves[s].size();
      }
    }
    engine.step();  // partial progress between arrivals
  }
  engine.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.session(s).done()) << "stream " << s;
    const Matrix streamed = engine.session(s).logits();
    ASSERT_EQ(streamed.rows(), references[s].rows()) << "stream " << s;
    EXPECT_EQ(streamed, references[s]) << "stream " << s;  // bitwise
  }

  const runtime::RuntimeStats& stats = engine.stats();
  std::size_t total_frames = 0;
  for (const Matrix& ref : references) total_frames += ref.rows();
  EXPECT_EQ(stats.frames_processed, total_frames);
  EXPECT_GT(stats.mean_batch(), 1.0);  // batching actually happened
  EXPECT_EQ(engine.remove_done(), kStreams);
  EXPECT_EQ(engine.session_count(), 0U);
}

TEST(InferenceEngine, MaxBatchBoundsStepSize) {
  TestDeployment d = make_deployment(16, 1, 77);
  EngineConfig config;
  config.max_batch = 2;
  InferenceEngine engine(*d.compiled, config);
  const std::vector<float> wave = random_waveform(4000, 5);
  for (int s = 0; s < 4; ++s) {
    StreamingSession& session = engine.create_session();
    session.push_audio(wave);
    session.finish();
  }
  std::size_t max_step = 0;
  while (true) {
    const std::size_t advanced = engine.step();
    if (advanced == 0) break;
    max_step = std::max(max_step, advanced);
  }
  EXPECT_EQ(max_step, 2U);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_TRUE(engine.session(s).done());
}

TEST(InferenceEngine, DefaultStatsRecordersStayCapped) {
  // A default-configured engine bounds its per-step recorders, so a
  // long-lived serving shard does not grow them for its whole life.
  TestDeployment d = make_deployment(8, 1, 91);
  EngineConfig config;
  config.max_batch = 1;  // one frame per step
  // A tiny front end keeps the cap + 1000 frames cheap.
  config.mfcc.frame_length = 32;
  config.mfcc.frame_shift = 32;
  config.mfcc.fft_size = 32;
  config.mfcc.num_mel_filters = 13;
  InferenceEngine engine(*d.compiled, config);
  const std::size_t cap = engine.stats().step_latency.cap();
  ASSERT_GT(cap, 0U);
  EXPECT_EQ(engine.stats().lag.cap(), cap);
  EXPECT_EQ(engine.stats().fused_width.cap(), cap);

  StreamingSession& session = engine.create_session();
  const std::vector<float> wave = random_waveform(32 * 4096, 92);
  while (engine.stats().steps <= cap + 1000) {
    session.push_audio(wave);
    engine.drain();
  }
  const runtime::RuntimeStats stats = engine.stats();
  EXPECT_GT(stats.step_latency.count(), cap);
  EXPECT_LE(stats.step_latency.retained(), cap);
  EXPECT_GT(stats.lag.count(), cap);
  EXPECT_LE(stats.lag.retained(), cap);
  EXPECT_LE(stats.fused_width.retained(), cap);
}

// -------------------------------------------------------- batched kernel
TEST(CompiledModel, StepBatchMatchesPerStreamInfer) {
  TestDeployment d = make_deployment(24, 4, 91);
  const std::size_t input_dim = d.compiled->config().input_dim;
  const std::size_t classes = d.compiled->config().num_classes;
  constexpr std::size_t kBatch = 3;
  constexpr std::size_t kFrames = 7;

  Rng rng(17);
  std::vector<Matrix> utterances;
  for (std::size_t b = 0; b < kBatch; ++b) {
    Matrix features(kFrames, input_dim);
    fill_normal(features.span(), rng, 1.0F);
    utterances.push_back(std::move(features));
  }

  std::vector<StreamState> states(kBatch, d.compiled->make_state());
  std::vector<StreamState*> state_ptrs;
  for (StreamState& s : states) state_ptrs.push_back(&s);
  Matrix frame(kBatch, input_dim);
  Matrix logits(kBatch, classes);
  CompiledSpeechModel::Panels panels;
  std::vector<Matrix> batched(kBatch, Matrix(kFrames, classes));
  for (std::size_t t = 0; t < kFrames; ++t) {
    for (std::size_t b = 0; b < kBatch; ++b) {
      std::copy(utterances[b].row(t).begin(), utterances[b].row(t).end(),
                frame.row(b).begin());
    }
    d.compiled->step_batch(frame, state_ptrs, logits, panels, d.pool.get());
    for (std::size_t b = 0; b < kBatch; ++b) {
      std::copy(logits.row(b).begin(), logits.row(b).end(),
                batched[b].row(t).begin());
    }
  }

  for (std::size_t b = 0; b < kBatch; ++b) {
    EXPECT_EQ(batched[b], d.compiled->infer(utterances[b], d.pool.get()))
        << "b=" << b;
  }
}

TEST(CompiledModel, BatchedRunRecurrenceExecutes) {
  TestDeployment d = make_deployment(16, 2, 31);
  EXPECT_NO_THROW(d.compiled->run_recurrence(5, 4, d.pool.get()));
  EXPECT_THROW(d.compiled->run_recurrence(5, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- stats
TEST(RuntimeStats, QuantilesAndRates) {
  runtime::LatencyRecorder recorder;
  EXPECT_EQ(recorder.quantile_us(0.5), 0.0);
  for (int i = 1; i <= 100; ++i) recorder.record(static_cast<double>(i));
  EXPECT_EQ(recorder.count(), 100U);
  EXPECT_DOUBLE_EQ(recorder.mean_us(), 50.5);
  EXPECT_DOUBLE_EQ(recorder.p50_us(), 50.0);  // nearest-rank
  EXPECT_DOUBLE_EQ(recorder.p95_us(), 95.0);
  EXPECT_EQ(recorder.quantile_us(0.0), 1.0);
  EXPECT_EQ(recorder.quantile_us(1.0), 100.0);
  EXPECT_THROW((void)recorder.quantile_us(1.5), std::invalid_argument);

  runtime::LatencyRecorder two;
  two.record(2.0);
  two.record(1.0);
  EXPECT_DOUBLE_EQ(two.quantile_us(0.5), 1.0);  // ceil(0.5*2) = 1st

  runtime::RuntimeStats stats;
  stats.frames_processed = 200;
  stats.steps = 50;
  stats.busy_us = 2e6;  // 2 s of compute
  stats.audio_seconds = 4.0;
  EXPECT_DOUBLE_EQ(stats.frames_per_second(), 100.0);
  EXPECT_DOUBLE_EQ(stats.real_time_factor(), 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), 4.0);
}

TEST(RuntimeStats, PercentileEdgeCases) {
  // Empty window: every statistic degrades to 0 rather than dividing by
  // zero or indexing an empty sample set.
  runtime::LatencyRecorder empty;
  EXPECT_EQ(empty.count(), 0U);
  EXPECT_DOUBLE_EQ(empty.mean_us(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p50_us(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p95_us(), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_us(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_us(1.0), 0.0);

  // Single sample: every quantile is that sample.
  runtime::LatencyRecorder one;
  one.record(42.0);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(one.quantile_us(q), 42.0) << "q=" << q;
  }

  // Exact nearest-rank boundary: with 20 samples 1..20, p95 ranks at
  // ceil(0.95 * 20) = 19 exactly — no off-by-one to 20 (and p50 at
  // ceil(10) = 10).
  runtime::LatencyRecorder twenty;
  for (int i = 20; i >= 1; --i) twenty.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(twenty.p95_us(), 19.0);
  EXPECT_DOUBLE_EQ(twenty.p50_us(), 10.0);
  EXPECT_DOUBLE_EQ(twenty.quantile_us(1.0), 20.0);

  // A quantile that lands between ranks rounds up (nearest rank), never
  // interpolates: ceil(0.9 * 3) = 3rd smallest.
  runtime::LatencyRecorder three;
  three.record(1.0);
  three.record(2.0);
  three.record(3.0);
  EXPECT_DOUBLE_EQ(three.quantile_us(0.9), 3.0);
}

TEST(LatencyRecorder, CappedModeIsExactBelowCapAndBoundedAbove) {
  // Below the cap a capped recorder is bit-identical to the exact one.
  runtime::LatencyRecorder exact;
  runtime::LatencyRecorder capped(64);
  for (int i = 1; i <= 50; ++i) {
    exact.record(static_cast<double>(i));
    capped.record(static_cast<double>(i));
  }
  EXPECT_EQ(capped.count(), 50U);
  EXPECT_EQ(capped.retained(), 50U);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(capped.quantile_us(q), exact.quantile_us(q)) << q;
  }
  EXPECT_DOUBLE_EQ(capped.mean_us(), exact.mean_us());

  // Past the cap, retention stays bounded while count() keeps the true
  // total; quantile estimates stay near the exact values of a uniform
  // ramp (systematic 1-in-stride subsample).
  runtime::LatencyRecorder soak(64);
  for (int i = 1; i <= 100'000; ++i) soak.record(static_cast<double>(i));
  EXPECT_EQ(soak.count(), 100'000U);
  EXPECT_LE(soak.retained(), 64U);
  EXPECT_GE(soak.retained(), 32U);
  EXPECT_NEAR(soak.p50_us(), 50'000.0, 100'000.0 / 32.0);
  EXPECT_NEAR(soak.quantile_us(1.0), 100'000.0, 100'000.0 / 32.0);
  EXPECT_DOUBLE_EQ(soak.quantile_us(0.0), 1.0);  // first sample is kept

  // Decimation is deterministic: an identical run retains identically.
  runtime::LatencyRecorder repeat(64);
  for (int i = 1; i <= 100'000; ++i) repeat.record(static_cast<double>(i));
  EXPECT_EQ(repeat.retained(), soak.retained());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(repeat.quantile_us(q), soak.quantile_us(q)) << q;
  }

  // Cap validation: 1 would thin forever.
  runtime::LatencyRecorder invalid;
  EXPECT_THROW(invalid.set_cap(1), std::invalid_argument);
}

TEST(LatencyRecorder, CapAppliedAfterRecordingKeepsAcceptingSamples) {
  // Capping a recorder that already holds samples must resync its
  // sampling grid — a stale grid silently dropped every later sample.
  runtime::LatencyRecorder recorder;
  for (int i = 1; i <= 10; ++i) recorder.record(static_cast<double>(i));
  recorder.set_cap(256);
  for (int i = 11; i <= 100; ++i) recorder.record(static_cast<double>(i));
  EXPECT_EQ(recorder.count(), 100U);
  EXPECT_EQ(recorder.retained(), 100U);  // still below the cap: exact
  EXPECT_DOUBLE_EQ(recorder.quantile_us(1.0), 100.0);
  EXPECT_DOUBLE_EQ(recorder.p50_us(), 50.0);

  // And the same resync when the cap immediately forces decimation.
  runtime::LatencyRecorder tight;
  for (int i = 1; i <= 100; ++i) tight.record(static_cast<double>(i));
  tight.set_cap(64);  // thins to 50 retained, stride 2
  for (int i = 101; i <= 110; ++i) tight.record(static_cast<double>(i));
  EXPECT_EQ(tight.count(), 110U);
  EXPECT_GT(tight.quantile_us(1.0), 100.0);  // new samples land
}

TEST(LatencyRecorder, CappedRecorderKeepsSamplingAfterMergesAndThins) {
  // A capped recorder that absorbed merges must keep accepting samples
  // through later record()-triggered thins — the retained set no longer
  // sits on any from-observation-1 grid, so the resync must anchor on
  // what was actually observed.
  runtime::LatencyRecorder sink(64);
  for (int m = 0; m < 8; ++m) {
    runtime::LatencyRecorder shard(64);
    for (int i = 1; i <= 1000; ++i) {
      shard.record(static_cast<double>(i));
    }
    sink.merge_from(shard);
  }
  const std::size_t observed_so_far = sink.count();
  EXPECT_EQ(observed_so_far, 8000U);
  for (int i = 1; i <= 4000; ++i) {
    sink.record(5000.0 + static_cast<double>(i));
  }
  EXPECT_EQ(sink.count(), observed_so_far + 4000U);
  EXPECT_LE(sink.retained(), 64U);
  // The post-merge stream is represented: its samples (all > 5000)
  // appear at the top of the distribution instead of being dropped.
  EXPECT_GT(sink.quantile_us(1.0), 5000.0);
}

TEST(LatencyRecorder, CappedMergeIsExactBelowCap) {
  runtime::LatencyRecorder whole;
  runtime::LatencyRecorder left(64);
  runtime::LatencyRecorder right(64);
  for (int i = 1; i <= 40; ++i) {
    whole.record(static_cast<double>(i));
    (i <= 15 ? left : right).record(static_cast<double>(i));
  }
  runtime::LatencyRecorder merged(64);
  merged.merge_from(left);
  merged.merge_from(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.retained(), 40U);
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile_us(q), whole.quantile_us(q)) << q;
  }
  // Merging keeps accepting samples afterwards (still exact below cap).
  merged.record(41.0);
  whole.record(41.0);
  EXPECT_DOUBLE_EQ(merged.quantile_us(1.0), whole.quantile_us(1.0));
}

TEST(RuntimeStats, DeadlineCountersMerge) {
  runtime::RuntimeStats a;
  a.lag.record(10.0);
  a.deadline_misses = 3;
  a.shed_frames = 7;
  a.rejected_streams = 1;
  a.frames_processed = 10;
  runtime::RuntimeStats b;
  b.lag.record(30.0);
  b.deadline_misses = 2;
  b.shed_frames = 5;
  b.rejected_streams = 0;
  b.frames_processed = 10;
  runtime::RuntimeStats merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.deadline_misses, 5U);
  EXPECT_EQ(merged.shed_frames, 12U);
  EXPECT_EQ(merged.rejected_streams, 1U);
  EXPECT_EQ(merged.lag.count(), 2U);
  EXPECT_DOUBLE_EQ(merged.lag.quantile_us(1.0), 30.0);
  EXPECT_DOUBLE_EQ(merged.miss_rate(), 0.25);
}

TEST(RuntimeStats, MergeFromIsExactOverSplits) {
  // merge(empty, x) == x, and splitting a sample set in any proportion
  // then merging reproduces the whole — the identity the cross-shard
  // aggregator depends on.
  runtime::LatencyRecorder whole;
  runtime::LatencyRecorder left;
  runtime::LatencyRecorder right;
  for (int i = 1; i <= 25; ++i) {
    whole.record(static_cast<double>(i));
    (i <= 7 ? left : right).record(static_cast<double>(i));
  }
  runtime::LatencyRecorder merged;
  merged.merge_from(left);
  merged.merge_from(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.mean_us(), whole.mean_us());
  EXPECT_DOUBLE_EQ(merged.p50_us(), whole.p50_us());
  EXPECT_DOUBLE_EQ(merged.p95_us(), whole.p95_us());

  runtime::LatencyRecorder untouched;
  untouched.merge_from(runtime::LatencyRecorder{});
  EXPECT_EQ(untouched.count(), 0U);
}

}  // namespace
}  // namespace rtmobile
