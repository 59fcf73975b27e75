// Tests for deadline-aware scheduling: the session real-time clock model
// (deterministic lag accounting under a ManualClock), EDF / lag-aware
// stream ordering, shed and reject overload thresholds with their
// kDegraded / kRejected events, sharded-vs-local parity of the deadline
// stats, and the round-robin cursor regressions (release/remove below
// the cursor must not skip streams).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/clock.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/streaming_session.hpp"
#include "serve/local_recognizer.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "speech/mfcc.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::ManualClock;
using runtime::OverloadPolicy;
using runtime::SchedulerPolicy;
using runtime::StreamDeadline;
using runtime::StreamingSession;
using speech::StreamEvent;
using speech::StreamEventKind;

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

struct TestDeployment {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
  std::unique_ptr<CompiledSpeechModel> compiled;
};

TestDeployment make_deployment(std::size_t hidden, std::uint64_t seed) {
  TestDeployment d;
  Rng rng(seed);
  d.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  d.model->init(rng);
  ParamSet params;
  d.model->register_params(params);
  for (const std::string& name : d.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    d.masks.emplace(name, std::move(mask));
  }
  d.options.format = SparseFormat::kBspc;
  d.compiled = std::make_unique<CompiledSpeechModel>(*d.model, d.masks,
                                                     d.options);
  return d;
}

EngineConfig engine_config(ManualClock& clock, SchedulerPolicy scheduler,
                           OverloadPolicy overload,
                           std::size_t max_batch = 32) {
  EngineConfig config;
  config.max_batch = max_batch;
  config.scheduler = scheduler;
  config.overload = overload;
  config.clock = &clock;
  config.mfcc = streaming_mfcc_config();
  return config;
}

/// Pushes `samples` of audio and finishes, so every produced frame is
/// queued (stamped with the clock's current time).
StreamingSession& add_stream(InferenceEngine& engine, std::size_t samples,
                             std::uint64_t seed, double budget_seconds) {
  StreamingSession& session = engine.create_session();
  session.set_deadline(StreamDeadline{budget_seconds});
  session.push_audio(random_waveform(samples, seed));
  session.finish();
  return session;
}

// ------------------------------------------------ lag accounting (clock)
TEST(DeadlineClock, LagTracksOldestQueuedFrameDeterministically) {
  TestDeployment d = make_deployment(16, 11);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kRoundRobin,
                                       OverloadPolicy::kNone));
  StreamingSession& session = add_stream(engine, 1600, 5, /*budget=*/0.03);
  const std::size_t frames = session.pending_frames();
  ASSERT_GT(frames, 0U);

  EXPECT_DOUBLE_EQ(session.lag_seconds(), 0.0);  // just arrived
  clock.advance_us(50'000.0);
  EXPECT_DOUBLE_EQ(session.lag_seconds(), 0.05);
  EXPECT_DOUBLE_EQ(session.frame_wait_us(clock.now_us()), 50'000.0);
  EXPECT_DOUBLE_EQ(engine.max_lag_seconds(), 0.05);

  // Every frame was stamped at t=0 and the clock is frozen at 50 ms, so
  // each served frame waits 50 ms > the 30 ms budget: a miss per frame,
  // and each scheduling round records a 50 ms worst-stream lag sample.
  std::size_t steps = 0;
  while (engine.step() > 0) ++steps;
  EXPECT_EQ(steps, frames);
  const runtime::RuntimeStats& stats = engine.stats();
  EXPECT_EQ(stats.lag.count(), frames);
  EXPECT_DOUBLE_EQ(stats.lag.p50_us(), 50'000.0);
  EXPECT_DOUBLE_EQ(stats.lag.p99_us(), 50'000.0);
  EXPECT_EQ(stats.deadline_misses, frames);
  EXPECT_EQ(session.deadline_misses(), frames);
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 1.0);
  EXPECT_TRUE(session.done());
  EXPECT_DOUBLE_EQ(session.lag_seconds(), 0.0);  // caught up
  EXPECT_DOUBLE_EQ(engine.max_lag_seconds(), 0.0);
}

TEST(DeadlineClock, NoBudgetMeansNoMisses) {
  TestDeployment d = make_deployment(16, 12);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kRoundRobin,
                                       OverloadPolicy::kNone));
  StreamingSession& session = add_stream(engine, 1600, 6, /*budget=*/0.0);
  clock.advance_us(500'000.0);
  while (engine.step() > 0) {
  }
  EXPECT_EQ(engine.stats().deadline_misses, 0U);
  EXPECT_EQ(session.deadline_misses(), 0U);
  EXPECT_GT(engine.stats().lag.count(), 0U);  // lag is still recorded
}

// --------------------------------------------------- policy ordering
TEST(SchedulerPolicyOrdering, EdfServesTightestBudgetFirst) {
  TestDeployment d = make_deployment(16, 21);
  ManualClock clock;
  InferenceEngine engine(
      *d.compiled,
      engine_config(clock, SchedulerPolicy::kEarliestDeadlineFirst,
                    OverloadPolicy::kNone, /*max_batch=*/1));
  // Same arrival time for everyone: deadline = arrival + budget, so the
  // serving order is the budget order, with the budgetless stream last.
  StreamingSession& loose = add_stream(engine, 1600, 1, 0.5);
  StreamingSession& tight = add_stream(engine, 1600, 2, 0.1);
  StreamingSession& middle = add_stream(engine, 1600, 3, 0.3);
  StreamingSession& none = add_stream(engine, 1600, 4, 0.0);
  const std::size_t per_stream = tight.pending_frames();

  // Each stream's frames all share one arrival stamp, so EDF drains the
  // tightest stream completely before touching the next.
  for (std::size_t i = 0; i < per_stream; ++i) ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(tight.frames_processed(), per_stream);
  EXPECT_EQ(middle.frames_processed(), 0U);
  for (std::size_t i = 0; i < per_stream; ++i) ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(middle.frames_processed(), per_stream);
  EXPECT_EQ(loose.frames_processed(), 0U);
  for (std::size_t i = 0; i < per_stream; ++i) ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(loose.frames_processed(), per_stream);
  EXPECT_EQ(none.frames_processed(), 0U);  // budgetless runs last
  while (engine.step() > 0) {
  }
  EXPECT_EQ(none.frames_processed(), per_stream);
}

TEST(SchedulerPolicyOrdering, LagAwareServesMostBehindFirst) {
  TestDeployment d = make_deployment(16, 22);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kLagAware,
                                       OverloadPolicy::kNone,
                                       /*max_batch=*/1));
  // Staggered arrivals; no budgets at all — lag-aware only needs the
  // arrival clock.
  StreamingSession& oldest = add_stream(engine, 1600, 1, 0.0);
  clock.advance_us(10'000.0);
  StreamingSession& middle = add_stream(engine, 1600, 2, 0.0);
  clock.advance_us(10'000.0);
  StreamingSession& newest = add_stream(engine, 1600, 3, 0.0);
  clock.advance_us(10'000.0);
  const std::size_t per_stream = oldest.pending_frames();

  for (std::size_t i = 0; i < per_stream; ++i) ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(oldest.frames_processed(), per_stream);
  EXPECT_EQ(middle.frames_processed(), 0U);
  for (std::size_t i = 0; i < per_stream; ++i) ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(middle.frames_processed(), per_stream);
  EXPECT_EQ(newest.frames_processed(), 0U);
  while (engine.step() > 0) {
  }
  EXPECT_EQ(newest.frames_processed(), per_stream);
}

// ------------------------------------------------- overload thresholds
TEST(OverloadPolicyActions, ShedDropsOnlyOverdueFramesAndEmitsDegraded) {
  TestDeployment d = make_deployment(16, 31);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kLagAware,
                                       OverloadPolicy::kShed,
                                       /*max_batch=*/1));
  StreamingSession& session = engine.create_session();
  session.set_deadline(StreamDeadline{0.1});

  // First cohort at t=0, second at t=150ms (the first is then 50 ms past
  // the 100 ms budget, the second well inside it).
  session.push_audio(random_waveform(1600, 7));
  const std::size_t overdue = session.pending_frames();
  ASSERT_GT(overdue, 0U);
  clock.advance_us(150'000.0);
  session.push_audio(random_waveform(1600, 8));
  session.finish();
  const std::size_t queued = session.pending_frames();
  ASSERT_GT(queued, overdue);

  ASSERT_EQ(engine.step(), 1U);  // shed happens before the gather
  EXPECT_EQ(session.shed_frames(), overdue);
  EXPECT_EQ(engine.stats().shed_frames, overdue);
  EXPECT_EQ(session.pending_frames(), queued - overdue - 1);
  // The served frame arrived at t=150ms and waited 0: no miss.
  EXPECT_EQ(engine.stats().deadline_misses, 0U);

  std::vector<StreamEvent> events;
  ASSERT_EQ(session.poll_events(events), 1U);
  EXPECT_EQ(events[0].kind, StreamEventKind::kDegraded);
  EXPECT_EQ(events[0].dropped_frames, overdue);
  EXPECT_EQ(events[0].frames, 0U);  // nothing had been served yet
  EXPECT_FALSE(events[0].is_final);

  while (engine.step() > 0) {
  }
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.frames_processed(), queued - overdue);
}

TEST(OverloadPolicyActions, ShedActsUnderRoundRobinToo) {
  // scheduler and overload are independent knobs: round-robin ordering
  // with shedding must still drop overdue frames.
  TestDeployment d = make_deployment(16, 33);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kRoundRobin,
                                       OverloadPolicy::kShed));
  StreamingSession& session = add_stream(engine, 1600, 7, /*budget=*/0.1);
  const std::size_t queued = session.pending_frames();
  ASSERT_GT(queued, 0U);
  clock.advance_us(200'000.0);  // everything queued is now overdue
  EXPECT_EQ(engine.step(), 0U);
  EXPECT_EQ(session.shed_frames(), queued);
  EXPECT_EQ(engine.stats().shed_frames, queued);
  EXPECT_TRUE(session.done());  // finished + everything shed
}

TEST(OverloadPolicyActions, EventsInterleaveInEmissionOrder) {
  // A kDegraded emitted before later hypothesis events must precede
  // them in the poll: per-stream `frames` stamps never go backwards.
  TestDeployment d = make_deployment(16, 34);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kLagAware,
                                       OverloadPolicy::kShed,
                                       /*max_batch=*/1));
  speech::StreamingDecoderConfig decode;
  decode.greedy = speech::DecoderConfig{1, 1};  // eager hypothesis events
  StreamingSession& session = engine.create_session(decode);
  session.set_deadline(StreamDeadline{0.1});

  session.push_audio(random_waveform(1600, 3));  // cohort 1 at t=0
  clock.advance_us(150'000.0);                   // cohort 1 overdue
  session.push_audio(random_waveform(1600, 4));  // cohort 2 at t=150ms
  session.finish();
  while (engine.step() > 0) {  // shed cohort 1, then serve cohort 2
  }
  ASSERT_GT(session.shed_frames(), 0U);
  ASSERT_GT(session.frames_processed(), 0U);

  std::vector<StreamEvent> events;
  session.poll_events(events);
  bool saw_degraded = false;
  std::size_t last_frames = 0;
  for (const StreamEvent& event : events) {
    EXPECT_GE(event.frames, last_frames) << "frames stamp went backwards";
    last_frames = event.frames;
    if (event.kind == StreamEventKind::kDegraded) {
      saw_degraded = true;
      EXPECT_EQ(event.frames, 0U);  // shed before anything was served
    }
  }
  EXPECT_TRUE(saw_degraded);
  // The shed precedes every hypothesis the decoder emitted afterwards.
  EXPECT_EQ(events.front().kind, StreamEventKind::kDegraded);
  EXPECT_TRUE(events.back().is_final);
}

TEST(OverloadPolicyActions, RejectTerminatesStreamAndEmitsRejected) {
  TestDeployment d = make_deployment(16, 32);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kLagAware,
                                       OverloadPolicy::kReject));
  // A decoding session: the decoder must finalize (its final hypothesis
  // event) before the terminal kRejected control event.
  speech::StreamingDecoderConfig decode;  // greedy default
  StreamingSession& session = engine.create_session(decode);
  session.set_deadline(StreamDeadline{0.1});
  session.push_audio(random_waveform(3200, 9));

  // Serve a couple of frames inside the budget first.
  ASSERT_GT(engine.step(), 0U);
  ASSERT_GT(engine.step(), 0U);
  const std::size_t served = session.frames_processed();
  const std::size_t queued = session.pending_frames();
  ASSERT_GT(queued, 0U);

  clock.advance_us(200'000.0);  // everything queued is now overdue
  EXPECT_EQ(engine.step(), 0U);  // reject leaves nothing to serve
  EXPECT_TRUE(session.rejected());
  EXPECT_TRUE(session.finished());
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.pending_frames(), 0U);
  EXPECT_EQ(session.shed_frames(), queued);
  EXPECT_EQ(engine.stats().shed_frames, queued);
  EXPECT_EQ(engine.stats().rejected_streams, 1U);

  std::vector<StreamEvent> events;
  session.poll_events(events);
  ASSERT_GE(events.size(), 2U);
  const StreamEvent& final_hypothesis = events[events.size() - 2];
  EXPECT_EQ(final_hypothesis.kind, StreamEventKind::kHypothesis);
  EXPECT_TRUE(final_hypothesis.is_final);
  EXPECT_EQ(final_hypothesis.frames, served);
  const StreamEvent& rejected = events.back();
  EXPECT_EQ(rejected.kind, StreamEventKind::kRejected);
  EXPECT_TRUE(rejected.is_final);
  EXPECT_EQ(rejected.dropped_frames, queued);
  EXPECT_EQ(rejected.frames, served);

  // Audio after the reject is dropped, and the stream stays done.
  session.push_audio(random_waveform(1600, 10));
  EXPECT_EQ(session.pending_frames(), 0U);
  EXPECT_TRUE(session.done());
  // The logits served before the reject remain readable.
  EXPECT_EQ(session.logits().rows(), served);
}

// ------------------------------------- serve-layer deadline stats parity
TEST(DeadlineStatsParity, ShardedMatchesLocalUnderSharedManualClock) {
  const std::size_t kHidden = 16;
  TestDeployment d = make_deployment(kHidden, 41);
  ManualClock clock;
  EngineConfig engine_cfg =
      engine_config(clock, SchedulerPolicy::kLagAware,
                    OverloadPolicy::kShed, /*max_batch=*/1);

  serve::LocalRecognizer local(*d.compiled, engine_cfg);
  serve::ShardConfig shard_config;
  shard_config.shards = 1;
  shard_config.policy = serve::RoutePolicy::kLeastLag;
  shard_config.engine = engine_cfg;
  serve::ShardedEngine sharded(*d.model, d.masks, d.options, shard_config);

  serve::StreamConfig stream_config;
  stream_config.decode.mode = speech::DecodeMode::kNone;
  stream_config.deadline.budget_seconds = 0.05;

  const serve::StreamHandle lh = local.open_stream(stream_config);
  const serve::StreamHandle sh = sharded.open_stream(stream_config);
  const std::vector<float> wave = random_waveform(3200, 77);
  ASSERT_TRUE(local.submit_audio(lh, wave));
  ASSERT_TRUE(local.finish_stream(lh));
  ASSERT_TRUE(sharded.submit_audio(sh, wave));
  ASSERT_TRUE(sharded.finish_stream(sh));
  // Apply the sharded commands at the same virtual time the local
  // recognizer ingested its audio (pump_shard applies, then steps once;
  // mirror with one local step).
  ASSERT_GT(sharded.pump_shard(0), 0U);
  ASSERT_GT(local.step(), 0U);

  // Let both fall 80 ms behind (past the 50 ms budget), then serve a
  // round: the overdue head frames shed identically.
  clock.advance_us(80'000.0);
  local.step();
  sharded.pump_shard(0);
  while (local.step() > 0) {
  }
  while (sharded.pump_shard(0) > 0) {
  }

  const serve::StreamDeadlineStats ls = local.stream_deadline_stats(lh);
  const serve::StreamDeadlineStats ss = sharded.stream_deadline_stats(sh);
  EXPECT_GT(ls.shed_frames, 0U);
  EXPECT_EQ(ls.shed_frames, ss.shed_frames);
  EXPECT_EQ(ls.deadline_misses, ss.deadline_misses);
  EXPECT_EQ(ls.rejected, ss.rejected);
  EXPECT_DOUBLE_EQ(ls.lag_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ss.lag_seconds, 0.0);

  const runtime::RuntimeStats& lstats = local.engine().stats();
  const runtime::RuntimeStats& sstats = sharded.shard_stats(0);
  EXPECT_EQ(lstats.frames_processed, sstats.frames_processed);
  EXPECT_EQ(lstats.shed_frames, sstats.shed_frames);
  EXPECT_EQ(lstats.deadline_misses, sstats.deadline_misses);
  EXPECT_EQ(lstats.lag.count(), sstats.lag.count());
  EXPECT_DOUBLE_EQ(lstats.lag.p99_us(), sstats.lag.p99_us());
  // The merged fleet view carries the same counters.
  EXPECT_EQ(sharded.stats().merged.shed_frames, lstats.shed_frames);
}

// ------------------------------------------- round-robin cursor regressions
TEST(RoundRobinCursor, ReleaseBelowCursorDoesNotSkipNextStream) {
  TestDeployment d = make_deployment(16, 51);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kRoundRobin,
                                       OverloadPolicy::kNone,
                                       /*max_batch=*/1));
  for (std::size_t s = 0; s < 4; ++s) {
    add_stream(engine, 3200, 100 + s, 0.0);
  }
  // Step 1 serves stream 0 and moves the cursor to index 1 (stream 1).
  ASSERT_EQ(engine.step(), 1U);
  EXPECT_EQ(engine.session(0).frames_processed(), 1U);

  // Releasing index 0 shifts streams 1..3 down one slot; the cursor must
  // follow so stream 1 (now index 0) keeps its turn.
  (void)engine.release_session(std::size_t{0});
  const std::size_t frames_before[3] = {
      engine.session(0).frames_processed(),
      engine.session(1).frames_processed(),
      engine.session(2).frames_processed()};
  for (std::size_t expect = 0; expect < 3; ++expect) {
    ASSERT_EQ(engine.step(), 1U);
    EXPECT_EQ(engine.session(expect).frames_processed(),
              frames_before[expect] + 1)
        << "stream at index " << expect
        << " was skipped after release_session";
  }
}

TEST(RoundRobinCursor, RemoveDoneBelowCursorDoesNotSkipNextStream) {
  TestDeployment d = make_deployment(16, 52);
  ManualClock clock;
  InferenceEngine engine(*d.compiled,
                         engine_config(clock, SchedulerPolicy::kRoundRobin,
                                       OverloadPolicy::kNone,
                                       /*max_batch=*/1));
  // Stream 0 has exactly one frame (400 samples = one 25 ms window);
  // streams 1..3 have plenty.
  add_stream(engine, 400, 99, 0.0);
  for (std::size_t s = 1; s < 4; ++s) {
    add_stream(engine, 3200, 100 + s, 0.0);
  }
  ASSERT_EQ(engine.session(0).pending_frames(), 1U);
  ASSERT_EQ(engine.step(), 1U);  // serves stream 0; it is now done
  ASSERT_TRUE(engine.session(0).done());

  // remove_done erases index 0 (below the cursor, which points at the
  // old stream 1); every remaining stream must be served exactly once
  // over the next full round, starting with old stream 1.
  EXPECT_EQ(engine.remove_done(), 1U);
  ASSERT_EQ(engine.session_count(), 3U);
  for (std::size_t expect = 0; expect < 3; ++expect) {
    ASSERT_EQ(engine.step(), 1U);
    EXPECT_EQ(engine.session(expect).frames_processed(), 1U)
        << "stream at index " << expect << " was skipped after remove_done";
  }
}

// ------------------------------------------------- least-lag routing
TEST(LeastLagRouting, PrefersShardWithLowestWorstStreamLag) {
  serve::ShardRouter router(3, serve::RoutePolicy::kLeastLag);
  const std::vector<std::size_t> loads{5, 1, 9};
  const std::vector<double> lags{20'000.0, 90'000.0, 5'000.0};
  EXPECT_EQ(router.pick(loads, lags, 0), 2U);  // lowest lag wins
  // Lag ties break to the lower load.
  const std::vector<double> tied{10'000.0, 10'000.0, 10'000.0};
  EXPECT_EQ(router.pick(loads, tied, 0), 1U);
  // Without a lag signal the policy degrades to least-loaded.
  EXPECT_EQ(router.pick(loads, 0), 1U);
  // Inadmissible shards are skipped even at the lowest lag.
  router.set_admissible(2, false);
  EXPECT_EQ(router.pick(loads, lags, 0), 0U);
}

}  // namespace
}  // namespace rtmobile
