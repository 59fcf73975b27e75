// Tests for the unified recognizer surface and the incremental decoder
// behind it.
//
// Two load-bearing guarantees:
//  1. Streaming-vs-batch decode parity: StreamingDecoder's finalized
//     hypothesis is bit-identical to whole-utterance greedy_decode /
//     viterbi_decode on the same logits, however the rows are chunked.
//  2. Recognizer conformance: LocalRecognizer and ShardedEngine pass the
//     same client-side suite, and a stream's event sequence (stable
//     deltas + partial tails) is identical across implementations, audio
//     chunk sizes, shard placements, and drain_shard migration.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/clock.hpp"
#include "runtime/inference_engine.hpp"
#include "serve/local_recognizer.hpp"
#include "serve/sharded_engine.hpp"
#include "speech/decoder.hpp"
#include "speech/mfcc.hpp"
#include "speech/streaming_decoder.hpp"
#include "sparse/block_mask.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using serve::LocalRecognizer;
using serve::Recognizer;
using serve::RecognizerEvent;
using serve::ShardConfig;
using serve::ShardedEngine;
using serve::StreamConfig;
using serve::StreamHandle;
using speech::DecodeMode;
using speech::DecoderConfig;
using speech::StreamEvent;
using speech::StreamingDecoder;
using speech::StreamingDecoderConfig;

Matrix random_logits(std::size_t frames, std::size_t classes,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix logits(frames, classes);
  fill_normal(logits.span(), rng, 2.0F);
  return logits;
}

/// Feeds all rows one at a time and finishes; returns every event.
std::vector<StreamEvent> run_decoder(const Matrix& logits,
                                     const StreamingDecoderConfig& config,
                                     StreamingDecoder* out = nullptr) {
  StreamingDecoder decoder(logits.cols(), config);
  std::vector<StreamEvent> events;
  for (std::size_t t = 0; t < logits.rows(); ++t) {
    decoder.push_row(logits.row(t));
    decoder.poll_events(events);
  }
  decoder.finish();
  decoder.poll_events(events);
  if (out != nullptr) *out = std::move(decoder);
  return events;
}

/// Reassembles the hypothesis a client would hold: concatenated stable
/// deltas (the final event's partial is empty).
std::vector<std::uint16_t> assemble(const std::vector<StreamEvent>& events) {
  std::vector<std::uint16_t> hypothesis;
  for (const StreamEvent& event : events) {
    hypothesis.insert(hypothesis.end(), event.stable.begin(),
                      event.stable.end());
  }
  return hypothesis;
}

// ------------------------------------------------ streaming decode parity
TEST(StreamingDecoder, GreedyFinalMatchesBatchAcrossConfigs) {
  for (const std::size_t frames : {1UL, 2UL, 3UL, 7UL, 41UL}) {
    const Matrix logits = random_logits(frames, 12, 100 + frames);
    for (const std::size_t window : {1UL, 3UL, 5UL}) {
      for (const std::size_t min_run : {1UL, 2UL, 3UL}) {
        StreamingDecoderConfig config;
        config.mode = DecodeMode::kGreedy;
        config.greedy = DecoderConfig{window, min_run};
        StreamingDecoder decoder(12, config);
        const std::vector<StreamEvent> events =
            run_decoder(logits, config, &decoder);

        const std::vector<std::uint16_t> batch =
            speech::greedy_decode(logits, config.greedy);
        EXPECT_EQ(std::vector<std::uint16_t>(decoder.stable().begin(),
                                             decoder.stable().end()),
                  batch)
            << "frames=" << frames << " window=" << window
            << " min_run=" << min_run;
        EXPECT_TRUE(decoder.partial().empty());
        EXPECT_EQ(assemble(events), batch);
        ASSERT_FALSE(events.empty());
        EXPECT_TRUE(events.back().is_final);
        EXPECT_TRUE(events.back().partial.empty());
      }
    }
  }
}

TEST(StreamingDecoder, GreedyDegenerateShortRunsFallBack) {
  // Alternating labels: every run has length 1 < min_run, so the batch
  // decoder falls back to a plain collapse — the stream must too.
  constexpr std::size_t kFrames = 6;
  Matrix logits(kFrames, 4, -10.0F);
  for (std::size_t t = 0; t < kFrames; ++t) {
    logits(t, t % 2) = 10.0F;  // argmax alternates 0, 1, 0, 1, ...
  }
  StreamingDecoderConfig config;
  config.greedy = DecoderConfig{1, 4};  // no smoothing, long min_run
  StreamingDecoder decoder(4, config);
  const std::vector<StreamEvent> events =
      run_decoder(logits, config, &decoder);
  const std::vector<std::uint16_t> batch =
      speech::greedy_decode(logits, config.greedy);
  EXPECT_EQ(assemble(events), batch);
  EXPECT_EQ(batch, (std::vector<std::uint16_t>{0, 1, 0, 1, 0, 1}));
}

TEST(StreamingDecoder, ViterbiFinalMatchesBatchAcrossPenalties) {
  for (const std::size_t frames : {1UL, 2UL, 3UL, 9UL, 40UL}) {
    for (const std::size_t classes : {1UL, 3UL, 12UL}) {
      const Matrix logits =
          random_logits(frames, classes, 7000 + frames * 100 + classes);
      for (const double penalty : {0.0, 4.0, 1e6}) {
        StreamingDecoderConfig config;
        config.mode = DecodeMode::kViterbi;
        config.switch_penalty = penalty;
        StreamingDecoder decoder(classes, config);
        const std::vector<StreamEvent> events =
            run_decoder(logits, config, &decoder);

        const std::vector<std::uint16_t> batch =
            speech::viterbi_decode(logits, penalty);
        EXPECT_EQ(assemble(events), batch)
            << "frames=" << frames << " classes=" << classes
            << " penalty=" << penalty;
        EXPECT_TRUE(decoder.partial().empty());
        ASSERT_FALSE(events.empty());
        EXPECT_TRUE(events.back().is_final);
      }
    }
  }
}

TEST(StreamingDecoder, StablePrefixNeverRetracts) {
  const Matrix logits = random_logits(60, 8, 42);
  for (const DecodeMode mode : {DecodeMode::kGreedy, DecodeMode::kViterbi}) {
    StreamingDecoderConfig config;
    config.mode = mode;
    StreamingDecoder decoder(8, config);
    std::vector<std::uint16_t> previous;
    for (std::size_t t = 0; t < logits.rows(); ++t) {
      decoder.push_row(logits.row(t));
      const std::vector<std::uint16_t> stable(decoder.stable().begin(),
                                              decoder.stable().end());
      ASSERT_GE(stable.size(), previous.size());
      ASSERT_TRUE(std::equal(previous.begin(), previous.end(),
                             stable.begin()))
          << "stable prefix retracted at frame " << t;
      previous = stable;
    }
    decoder.finish();
    const std::vector<std::uint16_t> final_stable(decoder.stable().begin(),
                                                  decoder.stable().end());
    ASSERT_GE(final_stable.size(), previous.size());
    EXPECT_TRUE(std::equal(previous.begin(), previous.end(),
                           final_stable.begin()));
  }
}

TEST(StreamingDecoder, HypothesisCombinesStableAndPartial) {
  const Matrix logits = random_logits(30, 6, 5);
  StreamingDecoderConfig config;
  StreamingDecoder decoder(6, config);
  for (std::size_t t = 0; t < logits.rows(); ++t) {
    decoder.push_row(logits.row(t));
    std::vector<std::uint16_t> expected(decoder.stable().begin(),
                                        decoder.stable().end());
    expected.insert(expected.end(), decoder.partial().begin(),
                    decoder.partial().end());
    EXPECT_EQ(decoder.hypothesis(), expected);
  }
}

// ------------------------------------------------- config validation
TEST(DecoderConfigValidation, RejectsEvenWindowAndZeroMinRunAtUse) {
  const Matrix logits = random_logits(5, 4, 9);
  EXPECT_THROW((void)speech::greedy_decode(logits, DecoderConfig{4, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)speech::greedy_decode(logits, DecoderConfig{3, 0}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)speech::greedy_decode(logits, DecoderConfig{1, 1}));

  StreamingDecoderConfig even;
  even.greedy = DecoderConfig{2, 2};
  EXPECT_THROW(StreamingDecoder(4, even), std::invalid_argument);
  StreamingDecoderConfig zero_run;
  zero_run.greedy = DecoderConfig{3, 0};
  EXPECT_THROW(StreamingDecoder(4, zero_run), std::invalid_argument);
  StreamingDecoderConfig negative;
  negative.mode = DecodeMode::kViterbi;
  negative.switch_penalty = -1.0;
  EXPECT_THROW(StreamingDecoder(4, negative), std::invalid_argument);
  StreamingDecoderConfig none;
  none.mode = DecodeMode::kNone;
  EXPECT_THROW(StreamingDecoder(4, none), std::invalid_argument);

  // The message names the offending field, not just the expression.
  try {
    (void)speech::greedy_decode(logits, DecoderConfig{4, 2});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("smooth_window"),
              std::string::npos);
  }
}

// --------------------------------------------- recognizer conformance
std::vector<float> random_waveform(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

struct ServeFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
};

ServeFixture make_fixture(std::size_t hidden, std::uint64_t seed) {
  ServeFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  f.options.format = SparseFormat::kBspc;
  return f;
}

/// One recognizer under test plus whatever owns its model.
struct Deployment {
  std::unique_ptr<CompiledSpeechModel> compiled;  // LocalRecognizer only
  std::unique_ptr<Recognizer> recognizer;
};

Deployment make_local(const ServeFixture& f,
                      const runtime::EngineConfig& engine = {}) {
  Deployment d;
  d.compiled = std::make_unique<CompiledSpeechModel>(*f.model, f.masks,
                                                     f.options);
  d.recognizer = std::make_unique<LocalRecognizer>(*d.compiled, engine);
  return d;
}

Deployment make_sharded(const ServeFixture& f, std::size_t shards,
                        const runtime::EngineConfig& engine = {}) {
  Deployment d;
  ShardConfig config;
  config.shards = shards;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine = engine;
  d.recognizer =
      std::make_unique<ShardedEngine>(*f.model, f.masks, f.options, config);
  return d;
}

struct ClientResult {
  std::vector<std::vector<StreamEvent>> events;  // per stream
  std::vector<Matrix> logits;                    // per stream
};

/// The one client loop every implementation must serve identically:
/// open, interleaved chunked submit with caller-driven drains and eager
/// polling, finish, final drain, read results.
ClientResult run_client(Recognizer& recognizer,
                        const std::vector<std::vector<float>>& waves,
                        const StreamConfig& config, std::size_t chunk,
                        bool close_when_done = true) {
  ClientResult result;
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < waves.size(); ++s) {
    handles.push_back(recognizer.open_stream(config));
  }
  result.events.resize(waves.size());

  std::vector<std::size_t> positions(waves.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < waves.size(); ++s) {
      if (positions[s] >= waves[s].size()) continue;
      const std::size_t n =
          std::min(chunk, waves[s].size() - positions[s]);
      EXPECT_TRUE(recognizer.submit_audio(
          handles[s],
          std::span<const float>(waves[s]).subspan(positions[s], n)));
      positions[s] += n;
      if (positions[s] >= waves[s].size()) {
        EXPECT_TRUE(recognizer.finish_stream(handles[s]));
      }
      any = any || positions[s] < waves[s].size();
    }
    recognizer.drain();  // recognition overlaps with arrival
    for (std::size_t s = 0; s < waves.size(); ++s) {
      recognizer.poll_events(handles[s], result.events[s]);
    }
  }
  recognizer.drain();
  for (std::size_t s = 0; s < waves.size(); ++s) {
    recognizer.poll_events(handles[s], result.events[s]);
    EXPECT_TRUE(recognizer.stream_done(handles[s])) << "stream " << s;
    result.logits.push_back(recognizer.stream_logits(handles[s]));
    if (close_when_done) {
      EXPECT_TRUE(recognizer.close_stream(handles[s]));
    }
  }
  return result;
}

/// Decodes a stream's collected logits with the batch decoder matching
/// the stream's decode config.
std::vector<std::uint16_t> batch_decode(const Matrix& logits,
                                        const StreamConfig& config) {
  if (config.decode.mode == DecodeMode::kViterbi) {
    return speech::viterbi_decode(logits, config.decode.switch_penalty);
  }
  return speech::greedy_decode(logits, config.decode.greedy);
}

class RecognizerConformance
    : public ::testing::TestWithParam<std::size_t> {};  // 0 = local

Deployment make_param_deployment(const ServeFixture& f, std::size_t shards,
                                 const runtime::EngineConfig& engine = {}) {
  return shards == 0 ? make_local(f, engine) : make_sharded(f, shards, engine);
}

TEST_P(RecognizerConformance, FinalsMatchBatchDecodeAndEventsAreWellFormed) {
  const ServeFixture f = make_fixture(20, 301);
  Deployment d = make_param_deployment(f, GetParam());

  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < 4; ++s) {
    waves.push_back(random_waveform(5000 + 900 * s, 60 + s));
  }
  for (const DecodeMode mode : {DecodeMode::kGreedy, DecodeMode::kViterbi}) {
    StreamConfig config;
    config.decode.mode = mode;
    const ClientResult result = run_client(*d.recognizer, waves, config,
                                           /*chunk=*/1600);
    for (std::size_t s = 0; s < waves.size(); ++s) {
      ASSERT_FALSE(result.events[s].empty()) << "stream " << s;
      const StreamEvent& last = result.events[s].back();
      EXPECT_TRUE(last.is_final);
      EXPECT_TRUE(last.partial.empty());
      EXPECT_EQ(last.frames, result.logits[s].rows());
      // The acceptance criterion: streamed finals are bit-identical to
      // the whole-utterance batch decode of the same logits.
      EXPECT_EQ(assemble(result.events[s]),
                batch_decode(result.logits[s], config))
          << "stream " << s << " mode " << to_string(mode);
    }
  }
}

TEST_P(RecognizerConformance, EventStreamIndependentOfAudioChunking) {
  const ServeFixture f = make_fixture(16, 500);
  const std::vector<std::vector<float>> waves{random_waveform(6000, 9)};
  StreamConfig config;

  // 160 samples = exactly one 10 ms feature hop: the 1-frame-chunk case.
  std::vector<ClientResult> results;
  for (const std::size_t chunk : {160UL, 1600UL, 6000UL}) {
    Deployment d = make_param_deployment(f, GetParam());
    results.push_back(run_client(*d.recognizer, waves, config, chunk));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].events[0], results[0].events[0])
        << "chunk size changed the event stream";
  }
}

TEST_P(RecognizerConformance, DrainAllPollMatchesPerHandlePoll) {
  const ServeFixture f = make_fixture(16, 77);
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < 3; ++s) {
    waves.push_back(random_waveform(4000 + 700 * s, 30 + s));
  }
  const StreamConfig config;

  // Reference: per-handle polling.
  Deployment per_handle = make_param_deployment(f, GetParam());
  const ClientResult reference =
      run_client(*per_handle.recognizer, waves, config, 1600);

  // Same workload, drained through the all-streams poll.
  Deployment drain_all = make_param_deployment(f, GetParam());
  Recognizer& recognizer = *drain_all.recognizer;
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < waves.size(); ++s) {
    handles.push_back(recognizer.open_stream(config));
  }
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_TRUE(recognizer.submit_audio(handles[s], waves[s]));
    EXPECT_TRUE(recognizer.finish_stream(handles[s]));
  }
  recognizer.drain();
  std::vector<RecognizerEvent> tagged;
  recognizer.poll_events(tagged);
  // The drain-all contract: streams emit in ascending handle-id order,
  // each stream's own events contiguous and in order.
  for (std::size_t i = 1; i < tagged.size(); ++i) {
    EXPECT_LE(tagged[i - 1].stream.id, tagged[i].stream.id)
        << "drain-all poll out of handle order at event " << i;
  }
  std::map<std::uint64_t, std::vector<StreamEvent>> by_stream;
  for (RecognizerEvent& event : tagged) {
    by_stream[event.stream.id].push_back(std::move(event.event));
  }
  ASSERT_EQ(by_stream.size(), waves.size());
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_EQ(by_stream.at(handles[s].id), reference.events[s])
        << "stream " << s;
  }
}

TEST_P(RecognizerConformance, RepeatedDrainAllPollsNeverDuplicateEvents) {
  // The drain-all poll reuses internal scratch between calls; events
  // polled once must never reappear, and an empty poll appends nothing.
  const ServeFixture f = make_fixture(16, 92);
  Deployment d = make_param_deployment(f, GetParam());
  Recognizer& recognizer = *d.recognizer;
  const StreamConfig config;
  const StreamHandle h = recognizer.open_stream(config);
  const std::vector<float> wave = random_waveform(6000, 5);

  ASSERT_TRUE(recognizer.submit_audio(
      h, std::span<const float>(wave).subspan(0, 3000)));
  recognizer.drain();
  std::vector<RecognizerEvent> tagged;
  const std::size_t first = recognizer.poll_events(tagged);
  EXPECT_EQ(tagged.size(), first);
  EXPECT_EQ(recognizer.poll_events(tagged), 0U);  // drained: no repeats
  EXPECT_EQ(tagged.size(), first);

  ASSERT_TRUE(recognizer.submit_audio(
      h, std::span<const float>(wave).subspan(3000, 3000)));
  ASSERT_TRUE(recognizer.finish_stream(h));
  recognizer.drain();
  std::vector<RecognizerEvent> second;
  ASSERT_GT(recognizer.poll_events(second), 0U);

  // First-phase events + second-phase events == one uninterrupted run.
  Deployment reference = make_param_deployment(f, GetParam());
  const ClientResult whole =
      run_client(*reference.recognizer, {wave}, config, 6000);
  std::vector<StreamEvent> combined;
  for (RecognizerEvent& event : tagged) {
    combined.push_back(std::move(event.event));
  }
  for (RecognizerEvent& event : second) {
    combined.push_back(std::move(event.event));
  }
  EXPECT_EQ(combined, whole.events[0]);
}

TEST_P(RecognizerConformance, DrainAllPollOrderedByHandleAfterSlotReuse) {
  // Closing a stream and opening another reuses internal slots in the
  // sharded implementation; the drain-all poll must still emit streams
  // in ascending handle-id order (not storage order), identically to
  // LocalRecognizer.
  const ServeFixture f = make_fixture(16, 91);
  Deployment d = make_param_deployment(f, GetParam());
  Recognizer& recognizer = *d.recognizer;
  const StreamConfig config;

  const StreamHandle first = recognizer.open_stream(config);
  const StreamHandle second = recognizer.open_stream(config);
  EXPECT_TRUE(recognizer.submit_audio(first, random_waveform(2000, 1)));
  EXPECT_TRUE(recognizer.finish_stream(first));
  recognizer.drain();
  std::vector<StreamEvent> sink;
  recognizer.poll_events(first, sink);
  EXPECT_TRUE(recognizer.close_stream(first));

  // `reused` takes the closed stream's slot in the sharded table, with a
  // handle id above `second`'s.
  const StreamHandle reused = recognizer.open_stream(config);
  EXPECT_GT(reused.id, second.id);
  for (const StreamHandle h : {second, reused}) {
    EXPECT_TRUE(recognizer.submit_audio(h, random_waveform(3000, 2)));
    EXPECT_TRUE(recognizer.finish_stream(h));
  }
  recognizer.drain();

  std::vector<RecognizerEvent> tagged;
  ASSERT_GT(recognizer.poll_events(tagged), 0U);
  ASSERT_FALSE(tagged.empty());
  for (std::size_t i = 1; i < tagged.size(); ++i) {
    EXPECT_LE(tagged[i - 1].stream.id, tagged[i].stream.id)
        << "drain-all poll out of handle order at event " << i;
  }
  // Both live streams are present, `second` first.
  EXPECT_EQ(tagged.front().stream.id, second.id);
  EXPECT_EQ(tagged.back().stream.id, reused.id);
}

TEST_P(RecognizerConformance, TryOpenStreamAgreesWithOpenStreamWrapper) {
  // The typed open and the throwing wrapper must admit the same streams
  // and serve them identically: open one stream each way, run the same
  // audio through both, compare event sequences.
  const ServeFixture f = make_fixture(16, 88);
  Deployment d = make_param_deployment(f, GetParam());
  Recognizer& recognizer = *d.recognizer;
  const StreamConfig config;
  const std::vector<float> wave = random_waveform(4000, 21);

  const serve::OpenResult typed = recognizer.try_open_stream(config);
  ASSERT_TRUE(typed.ok());
  ASSERT_EQ(typed.status, serve::OpenStatus::kOk);
  // Note: 0 is a valid handle id (ShardedEngine's first slot), so the
  // only validity signal is the status.
  const StreamHandle wrapped = recognizer.open_stream(config);
  ASSERT_NE(wrapped.id, typed.handle.id);

  std::vector<StreamEvent> typed_events;
  std::vector<StreamEvent> wrapped_events;
  for (const StreamHandle h : {typed.handle, wrapped}) {
    EXPECT_TRUE(recognizer.submit_audio(h, wave));
    EXPECT_TRUE(recognizer.finish_stream(h));
  }
  recognizer.drain();
  recognizer.poll_events(typed.handle, typed_events);
  recognizer.poll_events(wrapped, wrapped_events);
  EXPECT_EQ(typed_events, wrapped_events);
  EXPECT_TRUE(recognizer.close_stream(typed.handle));
  EXPECT_TRUE(recognizer.close_stream(wrapped));
}

TEST_P(RecognizerConformance, OpenTimeAdmissionRefusesOnlyOverBudgetOpens) {
  // Deterministic overload: a manual clock lags the queued audio on
  // every shard by 200 ms, past a 50 ms budget. ShardedEngine admits on
  // the lag its pumps last published, so the shards are pumped by hand;
  // LocalRecognizer reads its engine's lag at open time.
  const ServeFixture f = make_fixture(16, 94);
  runtime::ManualClock clock;
  runtime::EngineConfig engine;
  engine.clock = &clock;
  Deployment d = make_param_deployment(f, GetParam(), engine);
  Recognizer& recognizer = *d.recognizer;
  auto* const sharded = dynamic_cast<ShardedEngine*>(&recognizer);
  const std::size_t shards = sharded != nullptr ? sharded->shard_count() : 1;
  const auto pump_every_shard = [&] {
    for (std::size_t s = 0; sharded != nullptr && s < shards; ++s) {
      sharded->pump_shard(s);
    }
  };

  // Round-robin placement: one budget-free stream with queued audio per
  // shard.
  for (std::size_t s = 0; s < shards; ++s) {
    const StreamHandle h = recognizer.open_stream(StreamConfig{});
    ASSERT_TRUE(recognizer.submit_audio(h, random_waveform(8000, 60 + s)));
  }
  pump_every_shard();  // applies the audio at t = 0, serves one frame
  clock.advance_us(200e3);
  pump_every_shard();  // serves one more frame, publishes a 200 ms lag
  for (std::size_t s = 0; sharded != nullptr && s < shards; ++s) {
    ASSERT_GT(sharded->shard_lag_seconds(s), 0.05) << "shard " << s;
  }

  StreamConfig tight;
  tight.deadline.budget_seconds = 0.05;
  const serve::OpenResult refused = recognizer.try_open_stream(tight);
  EXPECT_EQ(refused.status, serve::OpenStatus::kRejectedOverBudget);
  EXPECT_FALSE(refused.ok());
  // The throwing wrapper retries only backpressure; a refusal throws.
  EXPECT_THROW((void)recognizer.open_stream(tight), std::runtime_error);

  // Opens the lag does not threaten are still admitted.
  EXPECT_EQ(recognizer.try_open_stream(StreamConfig{}).status,
            serve::OpenStatus::kOk);
  StreamConfig loose;
  loose.deadline.budget_seconds = 1.0;
  EXPECT_EQ(recognizer.try_open_stream(loose).status,
            serve::OpenStatus::kOk);
}

TEST_P(RecognizerConformance, WaitForEventsReflectsPendingEvents) {
  const ServeFixture f = make_fixture(16, 89);
  Deployment d = make_param_deployment(f, GetParam());
  Recognizer& recognizer = *d.recognizer;
  const StreamHandle h = recognizer.open_stream(StreamConfig{});

  // Nothing pending: a bounded wait must time out (false).
  EXPECT_FALSE(recognizer.wait_for_events(std::chrono::microseconds(1000)));

  ASSERT_TRUE(recognizer.submit_audio(h, random_waveform(4000, 31)));
  ASSERT_TRUE(recognizer.finish_stream(h));
  recognizer.drain();
  // Events pending: the fast path returns true without blocking.
  EXPECT_TRUE(recognizer.wait_for_events(std::chrono::microseconds(0)));

  std::vector<StreamEvent> events;
  ASSERT_GT(recognizer.poll_events(h, events), 0U);
  // Drained again: back to timing out.
  EXPECT_FALSE(recognizer.wait_for_events(std::chrono::microseconds(1000)));
  EXPECT_TRUE(recognizer.close_stream(h));
}

TEST_P(RecognizerConformance, WeightBytesCountTheSharedModelOnce) {
  // Every shard serves the one compiled model, so the fleet's resident
  // weights are a single LocalRecognizer's, however many shards run.
  const ServeFixture f = make_fixture(16, 90);
  const Deployment local = make_local(f);
  const Deployment d = make_param_deployment(f, GetParam());
  EXPECT_GT(d.recognizer->stats().weight_bytes, 0U);
  EXPECT_EQ(d.recognizer->stats().weight_bytes,
            local.recognizer->stats().weight_bytes);
}

INSTANTIATE_TEST_SUITE_P(LocalAndSharded, RecognizerConformance,
                         ::testing::Values(0U, 1U, 3U),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("Local")
                                      : "Sharded" +
                                            std::to_string(info.param);
                         });

TEST(RecognizerWaitForEvents, WakesWhenPumpThreadsPublish) {
  // The event-loop hook across threads: with a started ShardedEngine the
  // pumps publish on their own threads, and a waiter parked in
  // wait_for_events must wake without anyone calling drain().
  const ServeFixture f = make_fixture(16, 93);
  ShardConfig config;
  config.shards = 2;
  ShardedEngine engine(*f.model, f.masks, f.options, config);
  engine.start();
  const StreamHandle h = engine.open_stream(StreamConfig{});
  ASSERT_TRUE(engine.submit_audio(h, random_waveform(4000, 41)));
  ASSERT_TRUE(engine.finish_stream(h));
  // Generous bound; the pumps publish within microseconds of serving.
  EXPECT_TRUE(engine.wait_for_events(std::chrono::microseconds(2000000)));
  std::vector<StreamEvent> events;
  // The wakeup does not reserve events, but no one else polls here.
  while (events.empty() || !events.back().is_final) {
    engine.poll_events(h, events);
  }
  EXPECT_TRUE(engine.close_stream(h));
  engine.stop();
}

TEST(RecognizerConformance, EventStreamIndependentOfShardPlacement) {
  // The same audio served by shard 0, by shard 1, or by a lone local
  // engine must produce identical event sequences (round-robin forces
  // the placements).
  const ServeFixture f = make_fixture(20, 88);
  const std::vector<std::vector<float>> wave{random_waveform(7000, 4)};
  const StreamConfig config;

  Deployment local = make_local(f);
  const ClientResult reference =
      run_client(*local.recognizer, wave, config, 1600);

  Deployment sharded = make_sharded(f, 2);
  auto& engine = static_cast<ShardedEngine&>(*sharded.recognizer);
  const StreamHandle on_shard0 = engine.open_stream(config);
  const StreamHandle on_shard1 = engine.open_stream(config);
  ASSERT_EQ(engine.stream_shard(on_shard0), 0U);
  ASSERT_EQ(engine.stream_shard(on_shard1), 1U);
  for (const StreamHandle h : {on_shard0, on_shard1}) {
    ASSERT_TRUE(engine.submit_audio(h, wave[0]));
    ASSERT_TRUE(engine.finish_stream(h));
  }
  engine.drain();
  for (const StreamHandle h : {on_shard0, on_shard1}) {
    std::vector<StreamEvent> events;
    engine.poll_events(h, events);
    EXPECT_EQ(events, reference.events[0])
        << "placement changed the event stream";
  }
}

TEST(RecognizerConformance, MigrationPreservesEventStreamAndFinal) {
  // Serve half the utterance on the home shard, migrate via
  // drain_shard(), finish on the sibling: the event sequence and final
  // hypothesis must equal an unmigrated run frame for frame.
  const ServeFixture f = make_fixture(20, 88);
  const std::vector<float> wave = random_waveform(12000, 13);
  StreamConfig config;
  config.decode.mode = DecodeMode::kViterbi;  // DP state must migrate too

  Deployment local = make_local(f);
  const ClientResult reference = run_client(
      *local.recognizer, {wave}, config, 1600, /*close_when_done=*/false);

  Deployment sharded = make_sharded(f, 2);
  auto& engine = static_cast<ShardedEngine&>(*sharded.recognizer);
  const StreamHandle h = engine.open_stream(config);
  const std::size_t home = engine.stream_shard(h);
  const std::size_t half = wave.size() / 2;
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(0, half)));
  engine.drain();
  std::vector<StreamEvent> events;
  engine.poll_events(h, events);
  ASSERT_FALSE(engine.stream_done(h));

  ASSERT_EQ(engine.drain_shard(home), 1U);
  ASSERT_NE(engine.stream_shard(h), home);

  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(half, wave.size() - half)));
  ASSERT_TRUE(engine.finish_stream(h));
  engine.drain();
  engine.poll_events(h, events);

  ASSERT_TRUE(engine.stream_done(h));
  EXPECT_EQ(events, reference.events[0])
      << "migration changed the event stream";
  EXPECT_EQ(assemble(events),
            speech::viterbi_decode(engine.stream_logits(h),
                                   config.decode.switch_penalty));
}

TEST(LocalRecognizer, CloseReleasesAndStatsReport) {
  const ServeFixture f = make_fixture(16, 21);
  Deployment d = make_local(f);
  Recognizer& recognizer = *d.recognizer;

  const StreamHandle h = recognizer.open_stream();
  EXPECT_TRUE(recognizer.submit_audio(h, random_waveform(4000, 3)));
  EXPECT_TRUE(recognizer.finish_stream(h));
  recognizer.drain();
  ASSERT_TRUE(recognizer.stream_done(h));
  const Matrix logits = recognizer.stream_logits(h);
  EXPECT_GT(logits.rows(), 0U);

  const serve::GlobalStats stats = recognizer.stats();
  EXPECT_EQ(stats.shards, 1U);
  EXPECT_EQ(stats.merged.frames_processed, logits.rows());
  EXPECT_GT(stats.weight_bytes, 0U);
  EXPECT_GT(stats.wall_us, 0.0);

  EXPECT_TRUE(recognizer.close_stream(h));
  EXPECT_THROW((void)recognizer.stream_logits(h), std::invalid_argument);
  EXPECT_THROW((void)recognizer.stream_done(h), std::invalid_argument);
  const auto& local = static_cast<LocalRecognizer&>(recognizer);
  EXPECT_EQ(local.engine().session_count(), 0U);
}

TEST(LocalRecognizer, DecodeModeNoneCollectsLogitsOnly) {
  const ServeFixture f = make_fixture(16, 55);
  Deployment d = make_local(f);
  StreamConfig config;
  config.decode.mode = DecodeMode::kNone;
  const StreamHandle h = d.recognizer->open_stream(config);
  EXPECT_TRUE(d.recognizer->submit_audio(h, random_waveform(4000, 1)));
  EXPECT_TRUE(d.recognizer->finish_stream(h));
  d.recognizer->drain();
  std::vector<StreamEvent> events;
  EXPECT_EQ(d.recognizer->poll_events(h, events), 0U);
  EXPECT_TRUE(events.empty());
  EXPECT_GT(d.recognizer->stream_logits(h).rows(), 0U);
}

}  // namespace
}  // namespace rtmobile
