// Tests for the sharded serving layer: MPSC submission queue semantics,
// router policies, cross-shard stats identities, and — the load-bearing
// guarantee — that per-stream logits are bit-identical to whole-utterance
// inference regardless of which shard serves the stream, whether pumping
// is synchronous or threaded, and even when a stream migrates between
// shards mid-utterance.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/stats.hpp"
#include "serve/recognizer.hpp"
#include "serve/shard_router.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/submission_queue.hpp"
#include "speech/mfcc.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using runtime::RuntimeStats;
using serve::RoutePolicy;
using serve::ShardConfig;
using serve::ShardedEngine;
using serve::ShardRouter;
using serve::StreamCommand;
using serve::StreamHandle;
using serve::SubmissionQueue;

std::vector<float> random_waveform(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

speech::MfccConfig streaming_mfcc_config() {
  speech::MfccConfig config;
  config.cepstral_mean_norm = false;  // whole-utterance; cannot stream
  return config;
}

/// A small BSP-pruned model plus everything a ShardedEngine needs.
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

/// Reference logits: whole-utterance infer through a standalone compile
/// of the same model (the arithmetic every shard must reproduce).
Matrix reference_logits(const ServeFixture& f,
                        const std::vector<float>& wave) {
  const CompiledSpeechModel compiled(*f.model, f.masks, f.options);
  return compiled.infer(
      speech::MfccExtractor(streaming_mfcc_config()).extract(wave));
}

/// A keyed stream with in-loop decoding off: these tests compare logits
/// only.
serve::StreamConfig logits_only_stream(std::uint64_t session_key) {
  serve::StreamConfig config;
  config.decode = speech::StreamingDecoderConfig::none();
  config.session_key = session_key;
  return config;
}

StreamCommand audio_command(std::uint64_t stream,
                            std::vector<float> samples) {
  StreamCommand c;
  c.kind = StreamCommand::Kind::kAudio;
  c.stream = stream;
  c.samples = std::move(samples);
  return c;
}

// ------------------------------------------------------ submission queue
TEST(SubmissionQueue, FifoAndBackpressure) {
  SubmissionQueue queue(4);  // rounds to capacity 4
  EXPECT_EQ(queue.capacity(), 4U);
  EXPECT_EQ(queue.depth(), 0U);

  StreamCommand out;
  EXPECT_FALSE(queue.try_pop(out));

  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.try_push(audio_command(i, {static_cast<float>(i)})));
  }
  EXPECT_EQ(queue.depth(), 4U);
  EXPECT_FALSE(queue.try_push(audio_command(99, {})));  // full

  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out.stream, i);  // FIFO
    ASSERT_EQ(out.samples.size(), 1U);
    EXPECT_EQ(out.samples[0], static_cast<float>(i));
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_EQ(queue.depth(), 0U);

  // The ring is reusable after wrapping.
  EXPECT_TRUE(queue.try_push(audio_command(7, {})));
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.stream, 7U);
}

TEST(SubmissionQueue, MultiProducerSingleConsumerDeliversEverything) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  SubmissionQueue queue(64);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        StreamCommand c = audio_command(p * kPerProducer + i, {});
        while (!queue.try_push(std::move(c))) std::this_thread::yield();
      }
    });
  }

  std::set<std::uint64_t> seen;
  StreamCommand out;
  while (seen.size() < kProducers * kPerProducer) {
    if (queue.try_pop(out)) {
      EXPECT_TRUE(seen.insert(out.stream).second) << "duplicate delivery";
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);  // nothing lost
  EXPECT_FALSE(queue.try_pop(out));
}

// --------------------------------------------------------------- router
TEST(ShardRouter, RoundRobinCyclesAndSkipsDrained) {
  ShardRouter router(3, RoutePolicy::kRoundRobin);
  const std::vector<std::size_t> loads{5, 0, 9};  // ignored by this policy
  EXPECT_EQ(router.pick(loads), 0U);
  EXPECT_EQ(router.pick(loads), 1U);
  EXPECT_EQ(router.pick(loads), 2U);
  EXPECT_EQ(router.pick(loads), 0U);
  router.set_admissible(1, false);
  EXPECT_EQ(router.pick(loads), 2U);  // 1 skipped
  EXPECT_EQ(router.pick(loads), 0U);
  EXPECT_EQ(router.admissible_count(), 2U);
}

TEST(ShardRouter, LeastLoadedPicksMinWithStableTies) {
  ShardRouter router(3, RoutePolicy::kLeastLoaded);
  EXPECT_EQ(router.pick(std::vector<std::size_t>{3, 1, 2}), 1U);
  EXPECT_EQ(router.pick(std::vector<std::size_t>{2, 2, 2}), 0U);  // tie: lowest
  router.set_admissible(0, false);
  EXPECT_EQ(router.pick(std::vector<std::size_t>{0, 2, 2}), 1U);
}

TEST(ShardRouter, SessionHashIsStickyAndProbesPastDrainedShards) {
  ShardRouter router(4, RoutePolicy::kSessionHash);
  const std::vector<std::size_t> loads(4, 0);
  const std::size_t home = router.pick(loads, 1234);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.pick(loads, 1234), home);  // sticky
  }
  router.set_admissible(home, false);
  const std::size_t fallback = router.pick(loads, 1234);
  EXPECT_NE(fallback, home);
  EXPECT_EQ(router.pick(loads, 1234), fallback);  // fallback also stable

  // Distinct keys spread: with 64 keys over 4 shards every shard should
  // see at least one stream.
  router.set_admissible(home, true);
  std::set<std::size_t> hit;
  for (std::uint64_t key = 0; key < 64; ++key) {
    hit.insert(router.pick(loads, key));
  }
  EXPECT_EQ(hit.size(), 4U);
}

TEST(ShardRouter, ThrowsWhenNothingAdmissible) {
  ShardRouter router(2, RoutePolicy::kLeastLoaded);
  router.set_admissible(0, false);
  router.set_admissible(1, false);
  EXPECT_THROW((void)router.pick(std::vector<std::size_t>{0, 0}),
               std::invalid_argument);
}

TEST(ShardRouter, PolicyNamesRoundTrip) {
  for (const RoutePolicy policy :
       {RoutePolicy::kRoundRobin, RoutePolicy::kLeastLoaded,
        RoutePolicy::kSessionHash}) {
    EXPECT_EQ(serve::parse_route_policy(serve::to_string(policy)), policy);
  }
  EXPECT_THROW((void)serve::parse_route_policy("zone-aware"),
               std::invalid_argument);
}

// ------------------------------------------------------ stats aggregation
TEST(GlobalStats, MergeOfSplitsEqualsWhole) {
  // Build one "whole workload" stats object and the same workload split
  // across two shards; merging the splits must reproduce the whole.
  RuntimeStats whole;
  RuntimeStats half_a;
  RuntimeStats half_b;
  Rng rng(9);
  for (int i = 0; i < 101; ++i) {
    const double latency = 50.0 + 10.0 * rng.normal();
    RuntimeStats& half = i % 2 == 0 ? half_a : half_b;
    for (RuntimeStats* stats : {&whole, &half}) {
      stats->step_latency.record(latency);
      stats->steps += 1;
      stats->frames_processed += 3;
      stats->busy_us += latency;
      stats->audio_seconds += 0.03;
    }
  }

  serve::GlobalStats global;
  global.add_shard(half_a);
  global.add_shard(half_b);
  const RuntimeStats& merged = global.merged;
  EXPECT_EQ(global.shards, 2U);
  EXPECT_EQ(merged.frames_processed, whole.frames_processed);
  EXPECT_EQ(merged.steps, whole.steps);
  EXPECT_EQ(merged.step_latency.count(), whole.step_latency.count());
  // Quantiles sort the union of samples, so they merge exactly.
  EXPECT_DOUBLE_EQ(merged.step_latency.p50_us(),
                   whole.step_latency.p50_us());
  EXPECT_DOUBLE_EQ(merged.step_latency.p95_us(),
                   whole.step_latency.p95_us());
  // Sums (and the ratios derived from them) accumulate in a different
  // association order after a split, so they agree to rounding only.
  const double rel = 1e-12;
  EXPECT_NEAR(merged.busy_us, whole.busy_us, rel * whole.busy_us);
  EXPECT_NEAR(merged.audio_seconds, whole.audio_seconds,
              rel * whole.audio_seconds);
  EXPECT_NEAR(merged.step_latency.mean_us(), whole.step_latency.mean_us(),
              rel * whole.step_latency.mean_us());
  EXPECT_NEAR(merged.frames_per_second(), whole.frames_per_second(),
              rel * whole.frames_per_second());
  EXPECT_NEAR(merged.real_time_factor(), whole.real_time_factor(),
              rel * whole.real_time_factor());
}

TEST(GlobalStats, AggregateFpsSumsShardCapacity) {
  RuntimeStats a;
  a.frames_processed = 100;
  a.busy_us = 1e6;  // 100 fps
  RuntimeStats b;
  b.frames_processed = 300;
  b.busy_us = 1e6;  // 300 fps

  serve::GlobalStats global;
  global.add_shard(a);
  global.add_shard(b);
  global.wall_us = 2e6;
  EXPECT_EQ(global.shards, 2U);
  EXPECT_DOUBLE_EQ(global.aggregate_fps, 400.0);  // capacity: sum of shards
  EXPECT_EQ(global.merged.frames_processed, 400U);
  EXPECT_DOUBLE_EQ(global.wall_fps(), 200.0);  // 400 frames over 2 s wall
}

// ------------------------------------------------- sharded serving layer
TEST(ShardedEngine, StreamsAcrossShardsMatchWholeUtteranceInfer) {
  constexpr std::size_t kStreams = 6;
  const ServeFixture f = make_fixture(24, 301);

  ShardConfig config;
  config.shards = 3;
  config.policy = RoutePolicy::kLeastLoaded;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  std::vector<std::vector<float>> waves;
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    waves.push_back(random_waveform(6000 + 800 * s, 40 + s));
    handles.push_back(engine.open_stream());
  }
  // Least-loaded admission with equal per-stream load spreads evenly.
  std::vector<std::size_t> per_shard(config.shards, 0);
  for (const StreamHandle h : handles) {
    per_shard[engine.stream_shard(h)] += 1;
  }
  for (const std::size_t count : per_shard) EXPECT_EQ(count, 2U);

  // Interleaved chunked arrival with pumping between rounds.
  std::vector<std::size_t> positions(kStreams, 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < kStreams; ++s) {
      if (positions[s] >= waves[s].size()) continue;
      const std::size_t n =
          std::min<std::size_t>(900 + 70 * s, waves[s].size() - positions[s]);
      ASSERT_TRUE(engine.submit_audio(
          handles[s],
          std::span<const float>(waves[s]).subspan(positions[s], n)));
      positions[s] += n;
      if (positions[s] >= waves[s].size()) {
        ASSERT_TRUE(engine.finish_stream(handles[s]));
      }
      any = any || positions[s] < waves[s].size();
    }
    for (std::size_t shard = 0; shard < config.shards; ++shard) {
      engine.pump_shard(shard);
    }
  }
  engine.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.stream_done(handles[s])) << "stream " << s;
    EXPECT_EQ(engine.stream_logits(handles[s]), reference_logits(f, waves[s]))
        << "stream " << s;  // bitwise
  }

  const serve::GlobalStats global = engine.stats();
  std::size_t expected_frames = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    expected_frames += engine.stream_logits(handles[s]).rows();
  }
  EXPECT_EQ(global.merged.frames_processed, expected_frames);
  EXPECT_EQ(global.shards, config.shards);
}

TEST(ShardedEngine, PlacementDoesNotChangeLogitsBitwise) {
  // The determinism guarantee: the same audio served by shard 0, by
  // shard 1, or by the reference whole-utterance path produces
  // bit-identical logits. Round-robin admission forces the placements.
  const ServeFixture f = make_fixture(20, 77);
  const std::vector<float> wave = random_waveform(9000, 5);
  const Matrix reference = reference_logits(f, wave);

  ShardConfig config;
  config.shards = 2;
  config.policy = RoutePolicy::kRoundRobin;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const StreamHandle on_shard0 = engine.open_stream();
  const StreamHandle on_shard1 = engine.open_stream();
  ASSERT_EQ(engine.stream_shard(on_shard0), 0U);
  ASSERT_EQ(engine.stream_shard(on_shard1), 1U);

  for (const StreamHandle h : {on_shard0, on_shard1}) {
    ASSERT_TRUE(engine.submit_audio(h, wave));
    ASSERT_TRUE(engine.finish_stream(h));
  }
  engine.drain();

  EXPECT_EQ(engine.stream_logits(on_shard0), reference);  // bitwise
  EXPECT_EQ(engine.stream_logits(on_shard1), reference);  // bitwise
}

TEST(ShardedEngine, MigrationPreservesLogitsBitwise) {
  // Serve half the utterance on the stream's home shard, drain that
  // shard (migrating the live stream with hidden state and queued frames
  // intact), finish on the sibling — output must equal an unmigrated run.
  const ServeFixture f = make_fixture(20, 88);
  const std::vector<float> wave = random_waveform(12000, 13);
  const Matrix reference = reference_logits(f, wave);

  ShardConfig config;
  config.shards = 2;
  config.policy = RoutePolicy::kRoundRobin;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const StreamHandle h = engine.open_stream();
  const std::size_t home = engine.stream_shard(h);
  const std::size_t half = wave.size() / 2;
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(0, half)));
  engine.drain();
  ASSERT_FALSE(engine.stream_done(h));

  EXPECT_EQ(engine.drain_shard(home), 1U);
  const std::size_t away = engine.stream_shard(h);
  EXPECT_NE(away, home);

  // New streams cannot land on the drained shard.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.stream_shard(engine.open_stream()), away);
  }

  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(half, wave.size() - half)));
  ASSERT_TRUE(engine.finish_stream(h));
  engine.drain();

  ASSERT_TRUE(engine.stream_done(h));
  EXPECT_EQ(engine.stream_logits(h), reference);  // bitwise

  // The shard can rejoin the fleet.
  engine.set_shard_admissible(home, true);
  bool home_used = false;
  for (int i = 0; i < 4; ++i) {
    home_used = home_used ||
                engine.stream_shard(engine.open_stream()) == home;
  }
  EXPECT_TRUE(home_used);
}

TEST(ShardedEngine, MigrationFollowsSessionHashKey) {
  // Under the session-hash policy a migrated stream must land where
  // future streams of the same client key will land, or stickiness
  // silently breaks after a drain.
  const ServeFixture f = make_fixture(16, 21);
  ShardConfig config;
  config.shards = 3;
  config.policy = RoutePolicy::kSessionHash;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const std::uint64_t key = 777;
  const StreamHandle h = engine.open_stream(logits_only_stream(key));
  const std::size_t home = engine.stream_shard(h);
  const std::vector<float> wave = random_waveform(8000, 3);
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(0, wave.size() / 2)));
  engine.drain();
  ASSERT_FALSE(engine.stream_done(h));

  ASSERT_EQ(engine.drain_shard(home), 1U);
  const std::size_t away = engine.stream_shard(h);
  EXPECT_NE(away, home);
  // A fresh stream with the same key joins its migrated sibling.
  EXPECT_EQ(engine.stream_shard(engine.open_stream(logits_only_stream(key))),
            away);
}

TEST(ShardedEngine, ThreadedPumpsServeConcurrentProducers) {
  constexpr std::size_t kStreams = 4;
  const ServeFixture f = make_fixture(16, 555);

  ShardConfig config;
  config.shards = 2;
  config.policy = RoutePolicy::kSessionHash;
  config.queue_capacity = 8;  // small ring: exercise backpressure
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  std::vector<std::vector<float>> waves;
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    waves.push_back(random_waveform(5000 + 777 * s, 900 + s));
    handles.push_back(engine.open_stream(logits_only_stream(s)));
  }

  engine.start();
  EXPECT_TRUE(engine.running());

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&engine, &waves, &handles, s] {
      const std::vector<float>& wave = waves[s];
      for (std::size_t pos = 0; pos < wave.size(); pos += 1600) {
        const std::size_t n =
            std::min<std::size_t>(1600, wave.size() - pos);
        while (!engine.submit_audio(
            handles[s], std::span<const float>(wave).subspan(pos, n))) {
          std::this_thread::yield();  // ring full: backpressure
        }
      }
      while (!engine.finish_stream(handles[s])) std::this_thread::yield();
    });
  }
  for (std::thread& t : producers) t.join();

  // Graceful stop: everything submitted must be served before return.
  engine.stop();
  EXPECT_FALSE(engine.running());

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.stream_done(handles[s])) << "stream " << s;
    EXPECT_EQ(engine.stream_logits(handles[s]), reference_logits(f, waves[s]))
        << "stream " << s;  // bitwise
  }
  const serve::GlobalStats global = engine.stats();
  EXPECT_GT(global.wall_us, 0.0);
  EXPECT_GT(global.wall_fps(), 0.0);
}

TEST(ShardedEngine, CloseReleasesSessionsAndLateCommandsAreDropped) {
  const ServeFixture f = make_fixture(16, 91);
  ShardConfig config;
  config.shards = 2;
  config.policy = RoutePolicy::kRoundRobin;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const std::vector<float> wave = random_waveform(4000, 8);
  const StreamHandle done_stream = engine.open_stream();
  const StreamHandle abandoned = engine.open_stream();
  ASSERT_TRUE(engine.submit_audio(done_stream, wave));
  ASSERT_TRUE(engine.finish_stream(done_stream));
  ASSERT_TRUE(engine.submit_audio(abandoned, wave));
  engine.drain();
  ASSERT_TRUE(engine.stream_done(done_stream));

  // Late/duplicate commands for a completed stream are accepted at the
  // ring and dropped at apply time — they must not kill the shard.
  ASSERT_TRUE(engine.finish_stream(done_stream));
  ASSERT_TRUE(engine.submit_audio(done_stream, wave));
  engine.drain();
  const Matrix before_close = engine.stream_logits(done_stream);

  // Closing reaps the session from its engine; the handle is then dead.
  ASSERT_TRUE(engine.close_stream(done_stream));
  EXPECT_THROW((void)engine.stream_logits(done_stream),
               std::invalid_argument);
  ASSERT_TRUE(engine.close_stream(done_stream));  // double close: no-op

  // Abandoning the live stream mid-utterance reaps it too.
  ASSERT_TRUE(engine.close_stream(abandoned));
  EXPECT_TRUE(engine.stream_done(abandoned));
  engine.drain();
  std::size_t held = 0;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    held += engine.shard_session_count(s);
  }
  EXPECT_EQ(held, 0U);

  // The fleet still serves new work afterwards, reusing freed handle
  // slots: the closed handles go stale instead of aliasing the newcomer.
  const StreamHandle fresh = engine.open_stream();
  EXPECT_EQ(fresh.id & ((1ULL << 20) - 1),
            abandoned.id & ((1ULL << 20) - 1));  // slot reissued (LIFO)
  EXPECT_NE(fresh.id, abandoned.id);             // under a new generation
  EXPECT_THROW((void)engine.stream_done(abandoned), std::invalid_argument);
  ASSERT_TRUE(engine.submit_audio(fresh, wave));
  ASSERT_TRUE(engine.finish_stream(fresh));
  engine.drain();
  ASSERT_TRUE(engine.stream_done(fresh));
  EXPECT_EQ(engine.stream_logits(fresh), before_close);  // same audio
}

TEST(ShardedEngine, ShardsShareOneCompiledModel) {
  // One compile serves every shard: each shard's engine reads the same
  // model through its own pool and panels, concurrently once started.
  constexpr std::size_t kStreams = 4;
  ServeFixture f = make_fixture(16, 4);
  f.options.min_nnz_for_threading = 0;  // the pooled matvecs really split
  ShardConfig config;
  config.shards = 2;
  config.threads_per_shard = 2;
  config.pin_cores = true;
  config.policy = RoutePolicy::kRoundRobin;
  config.engine.mfcc = streaming_mfcc_config();
  ShardedEngine engine(*f.model, f.masks, f.options, config);
  const CompiledSpeechModel& model = engine.shard_model(0);
  EXPECT_EQ(&model, &engine.shard_model(1));
  EXPECT_EQ(model.options().threads, config.threads_per_shard);

  std::vector<std::vector<float>> waves;
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    waves.push_back(random_waveform(5000 + 900 * s, 610 + s));
    handles.push_back(engine.open_stream(logits_only_stream(s)));
  }
  engine.start();
  for (std::size_t s = 0; s < kStreams; ++s) {
    while (!engine.submit_audio(handles[s], waves[s])) {
      std::this_thread::yield();
    }
    while (!engine.finish_stream(handles[s])) std::this_thread::yield();
  }
  engine.stop();

  const speech::MfccExtractor extractor(config.engine.mfcc);
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.stream_done(handles[s])) << "stream " << s;
    EXPECT_EQ(engine.stream_logits(handles[s]),
              model.infer(extractor.extract(waves[s])))
        << "stream " << s;  // bitwise
  }
}

}  // namespace
}  // namespace rtmobile
