// Tests for the shard-local prefix result cache. The load-bearing
// invariant everywhere: the cache only ever *skips* compute — a stream
// resumed from cache produces logits and StreamEvents bitwise identical
// to an uncached run, across chunkings, divergence points, evictions,
// injected lookup faults, and shard migration.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "fault/fault_injector.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stats.hpp"
#include "serve/sharded_engine.hpp"
#include "speech/mfcc.hpp"
#include "speech/streaming_decoder.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using cache::CacheConfig;
using cache::PrefixCache;
using cache::PrefixCursor;
using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::StreamingSession;

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

/// A small BSP-pruned compiled model for engine-level cache tests.
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

/// One stream served end to end on `engine`: audio pushed in `chunk`-
/// sample pieces with a drain after each push (frames are served as they
/// arrive, like live traffic), then finish + final drain. Returns the
/// stream's logits; appends its events to `events` when decoding.
Matrix serve_stream(InferenceEngine& engine, std::span<const float> wave,
                    std::size_t chunk,
                    const speech::StreamingDecoderConfig& decode,
                    std::vector<speech::StreamEvent>* events = nullptr) {
  StreamingSession& session = engine.create_session(decode);
  for (std::size_t pos = 0; pos < wave.size(); pos += chunk) {
    session.push_audio(wave.subspan(pos, std::min(chunk, wave.size() - pos)));
    engine.drain();
  }
  session.finish();
  engine.drain();
  EXPECT_TRUE(session.done());
  if (events != nullptr) session.poll_events(*events);
  return session.logits();
}

EngineConfig cached_engine_config(std::size_t byte_budget = 64U << 20) {
  EngineConfig config;
  config.cache.enabled = true;
  config.cache.byte_budget = byte_budget;
  return config;
}

// ----------------------------------------------------- cursor & hashing

TEST(PrefixCursor, IdenticalChainsAgreeDifferentChainsDiverge) {
  const std::vector<float> state(16, 0.0F);
  const std::vector<float> frame_a = random_waveform(39, 1);
  const std::vector<float> frame_b = random_waveform(39, 2);

  PrefixCursor x = PrefixCursor::from_state(state);
  PrefixCursor y = PrefixCursor::from_state(state);
  EXPECT_EQ(x.sig_lo, y.sig_lo);
  EXPECT_EQ(x.sig_hi, y.sig_hi);

  x.advance(frame_a);
  y.advance(frame_a);
  EXPECT_EQ(x.sig_lo, y.sig_lo);
  EXPECT_EQ(x.sig_hi, y.sig_hi);

  PrefixCursor z = PrefixCursor::from_state(state);
  z.advance(frame_b);
  EXPECT_TRUE(x.sig_lo != z.sig_lo || x.sig_hi != z.sig_hi);
}

TEST(PrefixCursor, InitialStateIsPartOfTheChain) {
  std::vector<float> zero(8, 0.0F);
  std::vector<float> other(8, 0.0F);
  other[3] = 1e-3F;
  const PrefixCursor a = PrefixCursor::from_state(zero);
  const PrefixCursor b = PrefixCursor::from_state(other);
  EXPECT_TRUE(a.sig_lo != b.sig_lo || a.sig_hi != b.sig_hi);
}

TEST(PrefixCache, NearlyEqualFramesNeverServeEachOther) {
  // Two frames a hair apart differ in exact bits, so each is its own
  // prefix: with one cached, the other is a miss, not a wrong hit.
  std::vector<float> frame_a(4, 0.5F);
  std::vector<float> frame_b(4, 0.5F);
  frame_b[0] = 0.5F + 1e-4F;

  const std::vector<float> state(4, 0.0F);
  PrefixCursor a = PrefixCursor::from_state(state);
  PrefixCursor b = PrefixCursor::from_state(state);
  a.advance(frame_a);
  b.advance(frame_b);
  ASSERT_TRUE(a.sig_lo != b.sig_lo || a.sig_hi != b.sig_hi);

  CacheConfig config;
  config.enabled = true;
  PrefixCache cache(config);
  const std::vector<float> logits = {1.0F, 2.0F};
  cache.insert(a, logits, state);
  EXPECT_NE(cache.lookup(a), nullptr);
  EXPECT_EQ(cache.lookup(b), nullptr);
}

TEST(PrefixCache, KeysDifferingOnlyInHighWordBothStayResident) {
  // The key is the whole 128-bit signature: two prefixes that share
  // sig_lo are still distinct entries, each serving its own logits.
  CacheConfig config;
  config.enabled = true;
  PrefixCache cache(config);
  PrefixCursor a;
  a.sig_lo = 0x1234;
  a.sig_hi = 0xA000;
  PrefixCursor b = a;
  b.sig_hi = 0xB000;
  const std::vector<float> state = {0.0F};
  const std::vector<float> logits_a = {1.0F};
  const std::vector<float> logits_b = {2.0F};

  cache.insert(a, logits_a, state);
  const PrefixCache::InsertResult second = cache.insert(b, logits_b, state);
  EXPECT_EQ(second.evicted, 0U);
  EXPECT_EQ(cache.entries(), 2U);
  EXPECT_EQ(cache.evictions(), 0U);
  const PrefixCache::Entry* hit_a = cache.lookup(a);
  ASSERT_NE(hit_a, nullptr);
  EXPECT_EQ(hit_a->logits, logits_a);
  const PrefixCache::Entry* hit_b = cache.lookup(b);
  ASSERT_NE(hit_b, nullptr);
  EXPECT_EQ(hit_b->logits, logits_b);
}

// ------------------------------------------------------- cache mechanics

TEST(PrefixCache, InsertLookupRoundTrip) {
  CacheConfig config;
  config.enabled = true;
  PrefixCache cache(config);
  const std::vector<float> state = {0.25F, -0.5F};
  const std::vector<float> logits = {3.0F, 1.0F, 2.0F};
  PrefixCursor key = PrefixCursor::from_state(state);
  key.advance(logits);

  const PrefixCache::InsertResult inserted =
      cache.insert(key, logits, state);
  EXPECT_EQ(inserted.evicted, 0U);
  EXPECT_EQ(inserted.bytes_added, PrefixCache::entry_bytes(3, 2));
  EXPECT_EQ(cache.entries(), 1U);
  EXPECT_EQ(cache.bytes(), PrefixCache::entry_bytes(3, 2));

  const PrefixCache::Entry* entry = cache.lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->logits, logits);
  EXPECT_EQ(entry->state, state);

  // Same-prefix reinsert refreshes recency only: no bytes, no eviction.
  const PrefixCache::InsertResult again = cache.insert(key, logits, state);
  EXPECT_EQ(again.evicted, 0U);
  EXPECT_EQ(again.bytes_added, 0U);
  EXPECT_EQ(cache.entries(), 1U);
}

TEST(PrefixCache, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::vector<float> state = {0.0F};
  const std::vector<float> row = {1.0F};
  const std::size_t per_entry = PrefixCache::entry_bytes(1, 1);
  CacheConfig config;
  config.enabled = true;
  config.byte_budget = 3 * per_entry;
  PrefixCache cache(config);

  std::vector<PrefixCursor> keys;
  for (float v = 1.0F; v <= 4.0F; v += 1.0F) {
    PrefixCursor key = PrefixCursor::from_state(state);
    const std::vector<float> frame = {v};
    key.advance(frame);
    keys.push_back(key);
  }
  cache.insert(keys[0], row, state);
  cache.insert(keys[1], row, state);
  cache.insert(keys[2], row, state);
  EXPECT_EQ(cache.entries(), 3U);
  // Touch key0 so key1 is now the LRU victim.
  EXPECT_NE(cache.lookup(keys[0]), nullptr);
  cache.insert(keys[3], row, state);
  EXPECT_EQ(cache.entries(), 3U);
  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_EQ(cache.lookup(keys[1]), nullptr);   // evicted
  EXPECT_NE(cache.lookup(keys[0]), nullptr);   // survived (recently used)
  EXPECT_NE(cache.lookup(keys[3]), nullptr);   // the newcomer
  EXPECT_LE(cache.bytes(), config.byte_budget);
}

TEST(PrefixCache, BudgetBelowOneEntryDegradesToOneEntry) {
  const std::vector<float> state = {0.0F};
  const std::vector<float> row = {1.0F};
  CacheConfig config;
  config.enabled = true;
  config.byte_budget = 1;  // smaller than any entry
  PrefixCache cache(config);

  PrefixCursor a = PrefixCursor::from_state(state);
  const std::vector<float> fa = {1.0F};
  a.advance(fa);
  PrefixCursor b = PrefixCursor::from_state(state);
  const std::vector<float> fb = {2.0F};
  b.advance(fb);

  cache.insert(a, row, state);
  EXPECT_EQ(cache.entries(), 1U);  // never evicts the just-inserted entry
  EXPECT_NE(cache.lookup(a), nullptr);
  cache.insert(b, row, state);
  EXPECT_EQ(cache.entries(), 1U);
  EXPECT_EQ(cache.lookup(a), nullptr);
  EXPECT_NE(cache.lookup(b), nullptr);
}

TEST(PrefixCache, AdmitsOnSecondSighting) {
  CacheConfig config;
  config.enabled = true;
  PrefixCache cache(config);
  const std::vector<float> state = {0.0F};
  const std::vector<float> row = {1.0F};
  PrefixCursor key = PrefixCursor::from_state(state);
  key.advance(row);

  EXPECT_FALSE(cache.admit(key));  // first sighting: remembered only
  EXPECT_TRUE(cache.admit(key));   // second: admitted
  EXPECT_EQ(cache.entries(), 0U);  // admission alone stores nothing

  // A cached prefix is admitted on its first offer (insert refreshes it).
  PrefixCursor cached = key;
  cached.advance(row);
  cache.insert(cached, row, state);
  EXPECT_TRUE(cache.admit(cached));

  // Two prefixes sharing one slot overwrite each other's sighting, so
  // A, B, A admits neither.
  PrefixCursor a;
  a.sig_lo = 12345;
  a.sig_hi = 0xA000;
  PrefixCursor b;
  b.sig_lo = a.sig_lo + PrefixCache::kDoorkeeperSlots;
  b.sig_hi = 0xB000;
  EXPECT_FALSE(cache.admit(a));
  EXPECT_FALSE(cache.admit(b));
  EXPECT_FALSE(cache.admit(a));

  // clear() forgets sightings along with entries.
  cache.clear();
  EXPECT_FALSE(cache.admit(key));
  EXPECT_FALSE(cache.admit(cached));
}

// ------------------------------------------- engine parity (the tentpole)

TEST(CacheEngine, ReplayIsBitwiseIdenticalAndSkipsAllCompute) {
  const TestDeployment d = make_deployment(16, 7);
  const std::vector<float> wave = random_waveform(8000, 11);
  const speech::StreamingDecoderConfig decode;  // greedy events

  // Uncached reference run.
  InferenceEngine cold(*d.compiled);
  std::vector<speech::StreamEvent> cold_events;
  const Matrix reference = serve_stream(cold, wave, 1024, decode,
                                        &cold_events);

  InferenceEngine engine(*d.compiled, cached_engine_config());
  ASSERT_NE(engine.cache(), nullptr);

  // Two priming passes populate the cache (all compute): the first
  // sights each prefix, the second admits it...
  std::vector<speech::StreamEvent> first_events;
  const Matrix first = serve_stream(engine, wave, 1024, decode,
                                    &first_events);
  EXPECT_EQ(first, reference);
  const std::size_t frames = engine.stats().frames_processed;
  (void)serve_stream(engine, wave, 1024, decode);
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_EQ(engine.stats().cache_misses, 2 * frames);
  EXPECT_GT(engine.cache()->entries(), 0U);

  // ...a replay under a different chunking serves entirely from cache.
  std::vector<speech::StreamEvent> replay_events;
  const Matrix replay = serve_stream(engine, wave, 333, decode,
                                     &replay_events);
  EXPECT_EQ(replay, reference);                      // logits bitwise
  EXPECT_EQ(replay_events, cold_events);             // events bitwise
  EXPECT_EQ(first_events, cold_events);
  EXPECT_EQ(engine.stats().cache_hits, frames);      // every frame hit
  EXPECT_EQ(engine.stats().cache_misses, 2 * frames);
  // The accounting identity a cache-enabled engine maintains.
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().frames_processed);
  EXPECT_EQ(engine.stats().cache_bytes, engine.cache()->bytes());
}

TEST(CacheEngine, UniqueTrafficCachesNothing) {
  const TestDeployment d = make_deployment(12, 17);
  const speech::StreamingDecoderConfig decode;
  InferenceEngine cold(*d.compiled);
  InferenceEngine engine(*d.compiled, cached_engine_config());

  // Distinct waveforms never repeat a prefix, so none is admitted: every
  // frame is a miss and nothing becomes resident.
  for (std::uint64_t seed = 51; seed < 55; ++seed) {
    const std::vector<float> wave = random_waveform(6400, seed);
    std::vector<speech::StreamEvent> cold_events;
    const Matrix reference = serve_stream(cold, wave, 1024, decode,
                                          &cold_events);
    std::vector<speech::StreamEvent> events;
    const Matrix served = serve_stream(engine, wave, 1024, decode, &events);
    EXPECT_EQ(served, reference);
    EXPECT_EQ(events, cold_events);
  }
  EXPECT_EQ(engine.cache()->entries(), 0U);
  EXPECT_EQ(engine.cache()->bytes(), 0U);
  EXPECT_EQ(engine.stats().cache_bytes, 0U);
  EXPECT_EQ(engine.stats().cache_evictions, 0U);
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_GT(engine.stats().frames_processed, 0U);
  EXPECT_EQ(engine.stats().cache_misses, engine.stats().frames_processed);
}

TEST(CacheEngine, ThirdSightingHits) {
  const TestDeployment d = make_deployment(12, 19);
  const std::vector<float> wave = random_waveform(6400, 61);
  const speech::StreamingDecoderConfig decode;
  InferenceEngine engine(*d.compiled, cached_engine_config());

  (void)serve_stream(engine, wave, 1024, decode);
  const std::size_t frames = engine.stats().frames_processed;
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_EQ(engine.cache()->entries(), 0U);

  (void)serve_stream(engine, wave, 1024, decode);
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_EQ(engine.stats().cache_misses, 2 * frames);
  EXPECT_EQ(engine.cache()->entries(), frames);

  (void)serve_stream(engine, wave, 1024, decode);
  EXPECT_EQ(engine.stats().cache_hits, frames);  // every frame replayed
  EXPECT_EQ(engine.stats().cache_misses, 2 * frames);
}

TEST(CacheEngine, DivergenceAtEveryPrefixLengthStaysBitwise) {
  const TestDeployment d = make_deployment(12, 3);
  const std::vector<float> hot = random_waveform(6400, 21);
  const std::vector<float> tail = random_waveform(6400, 22);
  const speech::StreamingDecoderConfig decode;

  InferenceEngine engine(*d.compiled, cached_engine_config());
  // Prime the cache with the hot utterance.
  (void)serve_stream(engine, hot, 800, decode);

  // Streams sharing p samples of the hot prefix then diverging: at every
  // hop-aligned divergence point the cached run must equal an uncached
  // run of the same audio, bit for bit — hits up to the shared prefix,
  // plain compute after.
  std::size_t total_hits_before = engine.stats().cache_hits;
  for (std::size_t p = 0; p <= hot.size(); p += 1600) {
    std::vector<float> wave(hot.begin(),
                            hot.begin() + static_cast<std::ptrdiff_t>(p));
    wave.insert(wave.end(), tail.begin(),
                tail.end() - static_cast<std::ptrdiff_t>(p));

    InferenceEngine cold(*d.compiled);
    std::vector<speech::StreamEvent> cold_events;
    const Matrix reference = serve_stream(cold, wave, 1024, decode,
                                          &cold_events);
    std::vector<speech::StreamEvent> events;
    const Matrix cached = serve_stream(engine, wave, 1024, decode, &events);
    EXPECT_EQ(cached, reference) << "divergence at sample " << p;
    EXPECT_EQ(events, cold_events) << "divergence at sample " << p;
  }
  // Long shared prefixes actually exercised the hit path.
  EXPECT_GT(engine.stats().cache_hits, total_hits_before);
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().frames_processed);
}

TEST(CacheEngine, OneEntryBudgetStillBitwise) {
  const TestDeployment d = make_deployment(12, 5);
  const std::vector<float> wave = random_waveform(6400, 31);
  const speech::StreamingDecoderConfig decode;

  InferenceEngine cold(*d.compiled);
  std::vector<speech::StreamEvent> cold_events;
  const Matrix reference = serve_stream(cold, wave, 1024, decode,
                                        &cold_events);

  // A 1-byte budget degrades to a single resident entry: the replayed
  // stream finds only the deepest prefix cached, never its first frame,
  // so it recomputes everything — and must still be bitwise identical.
  InferenceEngine engine(*d.compiled, cached_engine_config(1));
  (void)serve_stream(engine, wave, 1024, decode);
  (void)serve_stream(engine, wave, 1024, decode);  // admits on 2nd pass
  ASSERT_EQ(engine.cache()->entries(), 1U);
  EXPECT_GT(engine.stats().cache_evictions, 0U);

  std::vector<speech::StreamEvent> events;
  const Matrix replay = serve_stream(engine, wave, 1024, decode, &events);
  EXPECT_EQ(replay, reference);
  EXPECT_EQ(events, cold_events);
  EXPECT_EQ(engine.stats().cache_hits, 0U);  // nothing to resume from
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().frames_processed);
}

// ------------------------------------------------------- fault injection

TEST(CacheEngine, LookupFaultDegradesToPlainCompute) {
  const TestDeployment d = make_deployment(12, 9);
  const std::vector<float> wave = random_waveform(6400, 41);
  const speech::StreamingDecoderConfig decode;

  InferenceEngine cold(*d.compiled);
  std::vector<speech::StreamEvent> cold_events;
  const Matrix reference = serve_stream(cold, wave, 1024, decode,
                                        &cold_events);

  fault::FaultInjector injector;
  EngineConfig config = cached_engine_config();
  config.fault = &injector;
  InferenceEngine engine(*d.compiled, config);
  (void)serve_stream(engine, wave, 1024, decode);

  // Every lookup poisoned: the replay takes the compute path throughout,
  // output untouched.
  injector.arm(fault::Site::kCacheLookup,
               {.trigger = fault::Trigger::every_k(1)});
  std::vector<speech::StreamEvent> events;
  const Matrix replay = serve_stream(engine, wave, 1024, decode, &events);
  EXPECT_EQ(replay, reference);
  EXPECT_EQ(events, cold_events);
  EXPECT_EQ(engine.stats().cache_hits, 0U);
  EXPECT_GT(injector.fires(fault::Site::kCacheLookup), 0U);

  // A single poisoned lookup only delays the resume: the round after it
  // hits again, and the output is still bitwise identical.
  injector.reset();
  injector.arm(fault::Site::kCacheLookup,
               {.trigger = fault::Trigger::one_shot()});
  std::vector<speech::StreamEvent> events2;
  const Matrix replay2 = serve_stream(engine, wave, 1024, decode, &events2);
  EXPECT_EQ(replay2, reference);
  EXPECT_EQ(events2, cold_events);
  EXPECT_GT(engine.stats().cache_hits, 0U);
  EXPECT_EQ(injector.fires(fault::Site::kCacheLookup), 1U);
}

// ------------------------------------------------------- stats plumbing

TEST(RuntimeStats, CacheCountersMergeAcrossShards) {
  runtime::RuntimeStats a;
  a.cache_hits = 10;
  a.cache_misses = 30;
  a.cache_evictions = 2;
  a.cache_bytes = 1000;
  runtime::RuntimeStats b;
  b.cache_hits = 5;
  b.cache_misses = 5;
  b.cache_evictions = 1;
  b.cache_bytes = 500;

  runtime::RuntimeStats merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.cache_hits, 15U);
  EXPECT_EQ(merged.cache_misses, 35U);
  EXPECT_EQ(merged.cache_evictions, 3U);
  EXPECT_EQ(merged.cache_bytes, 1500U);  // residency sums across shards
  EXPECT_NEAR(merged.cache_hit_rate(), 0.3, 1e-12);
  EXPECT_EQ(runtime::RuntimeStats{}.cache_hit_rate(), 0.0);  // no lookups
}

// ---------------------------------------------------- shard migration

TEST(CacheSharded, MigratedCacheResumedStreamStaysBitwise) {
  // A stream resumed *from cache* on its home shard, then migrated
  // mid-utterance via drain_shard, must finish bitwise identical — the
  // PrefixCursor rides the session, and the sibling shard's (cold,
  // shard-local) cache simply misses into plain compute.
  Rng rng(88);
  auto model = std::make_unique<SpeechModel>(ModelConfig::scaled(20));
  model->init(rng);
  std::map<std::string, BlockMask> masks;
  ParamSet params;
  model->register_params(params);
  for (const std::string& name : model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    masks.emplace(name, std::move(mask));
  }
  CompilerOptions options;
  options.format = SparseFormat::kBspc;

  const std::vector<float> wave = random_waveform(12000, 13);
  const CompiledSpeechModel reference_model(*model, masks, options);
  const Matrix reference = reference_model.infer(
      speech::MfccExtractor(streaming_mfcc_config()).extract(wave));

  serve::ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine.cache.enabled = true;
  serve::ShardedEngine engine(*model, masks, options, config);

  // Prime the home shard's cache with the full utterance, served twice
  // (the cache admits a prefix on its second computation).
  const serve::StreamHandle warm = engine.open_stream();
  const std::size_t home = engine.stream_shard(warm);
  ASSERT_TRUE(engine.submit_audio(warm, wave));
  ASSERT_TRUE(engine.finish_stream(warm));
  engine.drain();
  ASSERT_TRUE(engine.stream_done(warm));
  EXPECT_EQ(engine.stream_logits(warm), reference);
  serve::StreamHandle rewarm = engine.open_stream();
  while (engine.stream_shard(rewarm) != home) rewarm = engine.open_stream();
  ASSERT_TRUE(engine.submit_audio(rewarm, wave));
  ASSERT_TRUE(engine.finish_stream(rewarm));
  engine.drain();
  ASSERT_TRUE(engine.stream_done(rewarm));
  const std::size_t primed_misses = engine.shard_stats(home).cache_misses;
  EXPECT_GT(primed_misses, 0U);
  ASSERT_NE(engine.shard_cache(home), nullptr);
  EXPECT_GT(engine.shard_cache(home)->entries(), 0U);

  // Route the victim stream to the same shard (round-robin alternates,
  // so open until it lands home), serve half its audio from cache...
  serve::StreamHandle h = engine.open_stream();
  while (engine.stream_shard(h) != home) h = engine.open_stream();
  const std::size_t half = wave.size() / 2;
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(0, half)));
  engine.drain();
  ASSERT_FALSE(engine.stream_done(h));
  EXPECT_GT(engine.shard_stats(home).cache_hits, 0U);  // resumed from cache
  EXPECT_EQ(engine.shard_stats(home).cache_misses, primed_misses);

  // ...then migrate it mid-utterance and finish on the sibling.
  EXPECT_GE(engine.drain_shard(home), 1U);
  const std::size_t away = engine.stream_shard(h);
  EXPECT_NE(away, home);
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(half, wave.size() - half)));
  ASSERT_TRUE(engine.finish_stream(h));
  engine.drain();

  ASSERT_TRUE(engine.stream_done(h));
  EXPECT_EQ(engine.stream_logits(h), reference);  // bitwise
  // Shard-local caches: the sibling computed its share (misses), and the
  // fleet view merges both shards' counters.
  EXPECT_GT(engine.shard_stats(away).cache_misses, 0U);
  const runtime::RuntimeStats& merged = engine.stats().merged;
  EXPECT_EQ(merged.cache_hits,
            engine.shard_stats(0).cache_hits +
                engine.shard_stats(1).cache_hits);
  EXPECT_EQ(merged.cache_misses,
            engine.shard_stats(0).cache_misses +
                engine.shard_stats(1).cache_misses);
  EXPECT_EQ(merged.cache_hits + merged.cache_misses,
            merged.frames_processed);
}

}  // namespace
}  // namespace rtmobile
