// perfbench_serve: the serving benchmark. One invocation runs one workload
// for a fixed measurement window and prints its metrics; the last line of
// standard output is the JSON result
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See perfbench/README.md for what each workload and metric
// means and which layer metric should move which end-to-end metric.
//
//   perfbench_serve --workload wire_sharded --seed 1 --seconds 10 --trace 0
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fixture.hpp"
#include "host_speed.hpp"
#include "loadgen.hpp"
#include "net/recognizer_server.hpp"
#include "obs/telemetry.hpp"
#include "report.hpp"
#include "serve/local_recognizer.hpp"
#include "serve/sharded_engine.hpp"
#include "util/cli.hpp"

namespace perfbench {
namespace {

using namespace rtmobile;

// ------------------------------------------------------------ constants
/// Load before the measurement window, so it opens on a steady state: the
/// closed loops' first wave of 32 cold streams (local_repeat's cache fill
/// at fp32) takes ~1.4 s on the reference host.
constexpr double kWirePrerollSeconds = 1.0;
constexpr double kLocalPrerollSeconds = 2.0;
/// A serving phase with no progress for this long is a hang: the run
/// exits non-zero, counting unfinished streams as failed.
constexpr double kHangSeconds = 15.0;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;
/// wire_sharded: aggregate offered load (audio seconds per wall second)
/// over 4 connections. Fixed once at 6: about 30% of the ~20 audio-s/s the
/// 2 fp32 shards sustain on the reference host (4-core Xeon VM) when it is
/// quiet. Half of capacity was the first choice, but that host loses up to
/// half its speed under neighbours' load, which turned 50% utilisation
/// into queueing and made latency swing run to run. Never recomputed, so a
/// faster program shows lower latency, not a different load.
constexpr double kWireOfferedLoad = 6.0;
constexpr std::size_t kWireConnections = 4;
/// wire_sharded is valid only if the generator kept its schedule: p99 of
/// (send time - due time) over all chunks must stay under this.
constexpr double kMaxLateMsP99 = 20.0;
/// local_*: streams kept in flight by the closed loop.
constexpr std::size_t kLocalConcurrency = 32;
/// Streams whose hypothesis is re-derived from the fp32 reference per run
/// (unique-audio workloads; local_repeat checks every stream).
constexpr std::size_t kCheckedStreams = 96;
constexpr std::size_t kCheckThreads = 4;
/// int8 weights + int8 activations: the checked streams' hypotheses must
/// reproduce at least this share of the fp32 reference tokens, pooled over
/// the streams. Seeds 1-10 measured 0.93-0.96 over 96 streams (~900
/// reference tokens); one stream alone can match far less, so there is no
/// per-stream floor. Below it, every checked stream under the floor counts
/// as failed.
constexpr double kInt8TokenMatchFloor = 0.85;
/// Traced runs: the stage spans must explain the engines' busy time to
/// within this share (the rest is reported as accounting.unexplained).
constexpr double kAccountingTolerance = 0.2;
constexpr std::size_t kUniquePool = 96;
/// Host-speed scaling (host_speed.hpp). The probe runs every 50 ms of the
/// window: on the serving thread in the closed loops (about 2% of their
/// time), on the client thread on the wire. Every end-to-end duration,
/// set-up included, is reported at the speed of a host on which the
/// window's median probe takes kReferenceProbeUs: measured / (probe /
/// reference); a rate is multiplied by the same factor. Scaling by the
/// window's probe rather than one taken during set-up: a few samples
/// between set-ups read the probe's buffers hot and spread more than the
/// set-up times themselves. The paced workload's xrt is the offered load,
/// not a speed, and is not scaled.
constexpr double kProbeIntervalUs = 50e3;
constexpr double kReferenceProbeUs = 1000.0;

struct WorkloadSpec {
  const char* name;
  const char* why;
  bool wire;
  bool int8;
  bool repeat;
};

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"wire_sharded",
     "open-loop 100 ms chunks over loopback TCP into 2 fp32 shards (1 "
     "thread each): the only workload with the net and serve layers on "
     "the blocking path",
     true, false, false},
    {"local_wide_int8",
     "closed loop of 32 unique streams in LocalRecognizer with int8 "
     "weights and activations: the fused int8 matmat at width 32 "
     "dominates and every cache lookup misses",
     false, true, false},
    {"local_repeat",
     "closed loop of 32 fp32 streams dealt at Zipf s=1.1 from 16 "
     "utterances: cache hits skip the model, so MFCC, decode and cache "
     "lookup dominate",
     false, false, true},
}};

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit;
};

// -------------------------------------------------------------- watchdog
/// Hang guard: serving loops beat on progress; if an armed phase goes
/// kHangSeconds without a beat (a wedged pump, a lost wakeup, a dead
/// socket), the process prints a failed result and exits non-zero at once
/// — it cannot join threads that never return.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm() {
    last_beat_us_.store(now_us());
    armed_.store(true);
  }
  void disarm() { armed_.store(false); }
  void beat(std::size_t attempted, std::size_t finished) {
    attempted_.store(attempted);
    finished_.store(finished);
    last_beat_us_.store(now_us());
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      if (armed_.load() &&
          now_us() - last_beat_us_.load() > kHangSeconds * 1e6) {
        const std::size_t attempted = attempted_.load();
        const std::size_t finished = finished_.load();
        std::fprintf(stderr, "perfbench: no progress for %.0f s: hang\n",
                     kHangSeconds);
        std::printf(
            "{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
            "\"metrics\": {}}\n",
            std::max<std::size_t>(attempted, 1),
            std::max<std::size_t>(attempted - std::min(attempted, finished),
                                  1));
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }

  std::atomic<bool> armed_{false};
  std::atomic<double> last_beat_us_{0.0};
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> finished_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

// --------------------------------------------------------------- traffic
struct Utterance {
  std::size_t index = 0;  // audio_index: what the output check re-makes
  std::vector<float> samples;
};

/// The seeded inputs of one workload: unique utterances, or repeat-heavy
/// draws from a small pool.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, std::uint64_t seed) {
    if (spec.repeat) {
      repeat_.emplace(repeat_traffic(seed));
    } else {
      unique_.emplace(seed, kUniquePool);
    }
  }

  [[nodiscard]] Utterance next(std::size_t n) {
    if (repeat_) {
      // The first pass plays every pooled utterance once (during the
      // pre-roll) so the window starts on a filled cache; Zipf draws follow.
      const std::size_t rank =
          n < repeat_->pool_size() ? n : repeat_->next_rank();
      return {rank, repeat_->utterance(rank)};
    }
    return {n, unique_->make(n)};
  }

  [[nodiscard]] std::vector<float> audio(std::size_t index) const {
    return repeat_ ? repeat_->utterance(index) : unique_->make(index);
  }

 private:
  std::optional<UniqueAudio> unique_;
  std::optional<speech::UtteranceRepeatGenerator> repeat_;
};

/// Warm-up traffic: fixed, and distinct from every workload's audio.
Traffic warm_traffic() {
  static constexpr WorkloadSpec kWarm{"warm", "", false, false, false};
  return Traffic(kWarm, 0x3A7A0000ULL);
}

/// Warm-up streams are cut to 0.2 s: enough to grow every batch buffer to
/// full width without making set-up time mostly warm-up compute.
Utterance warm_utterance(Traffic& warm, std::size_t n) {
  Utterance u = warm.next(n);
  u.samples.resize(std::min<std::size_t>(u.samples.size(), 2 * kChunkSamples));
  return u;
}

serve::StreamConfig stream_config() {
  serve::StreamConfig config;
  config.decode = stream_decode();
  return config;
}

// ------------------------------------------------------------ deployment
/// Everything one set-up builds. Member order is teardown order reversed:
/// the server goes before the engine it fronts, the recognizer before the
/// compiled model it serves.
struct Deployment {
  PrunedModel pruned;
  std::unique_ptr<CompiledSpeechModel> compiled;         // local
  std::unique_ptr<serve::LocalRecognizer> local;         // local
  std::unique_ptr<serve::ShardedEngine> engine;          // wire
  std::unique_ptr<net::RecognizerServer> server;         // wire
  std::size_t warm_events = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    try {
      stop();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: teardown: %s\n", e.what());
    }
  }

  /// Stops the serving threads (idempotent); stats become readable.
  void stop() {
    if (server) server->stop();
    if (engine && engine->running()) engine->stop();
  }
};

/// Tracks the recognized audio at the window's edges: xrt is the audio
/// recognized between them per wall second.
class WindowMarks {
 public:
  WindowMarks(double start_us, double end_us)
      : start_us_(start_us), end_us_(end_us) {}

  /// Returns +1 when this call opened the window, -1 when it closed it.
  int observe(double now, double recognized_s) {
    if (!started_ && now >= start_us_) {
      started_ = true;
      t_start_ = now;
      a_start_ = recognized_s;
      return 1;
    }
    if (started_ && !ended_ && now >= end_us_) {
      ended_ = true;
      t_end_ = now;
      a_end_ = recognized_s;
      return -1;
    }
    return 0;
  }
  [[nodiscard]] double wall_us() const { return ended_ ? t_end_ - t_start_ : 0; }
  [[nodiscard]] double xrt() const {
    return ended_ ? (a_end_ - a_start_) / (wall_us() * 1e-6) : 0.0;
  }

 private:
  double start_us_;
  double end_us_;
  bool started_ = false;
  bool ended_ = false;
  double t_start_ = 0.0;
  double t_end_ = 0.0;
  double a_start_ = 0.0;
  double a_end_ = 0.0;
};

/// The benchmark's own timers around the public calls of a closed loop.
struct CallTimes {
  double submit_us = 0.0;  // try_open_stream + submit_audio + finish_stream
  double step_us = 0.0;    // LocalRecognizer::step (InferenceEngine::step)
  double poll_us = 0.0;    // poll_events (the local event flush)
  std::size_t steps = 0;
};

/// Closed loop on the calling thread: keeps kLocalConcurrency streams in
/// flight, submitting each stream's whole audio at admission and opening
/// a replacement whenever one finishes, until `stop_us`; then drains.
void run_closed_loop(serve::LocalRecognizer& recognizer,
                     const std::function<Utterance(std::size_t)>& next,
                     Ledger& ledger, double stop_us, Watchdog& dog,
                     CallTimes& times,
                     const std::function<void(double)>& on_tick) {
  std::unordered_map<std::uint64_t, std::size_t> stream_of;
  std::size_t opened = 0;
  const auto open_one = [&] {
    Utterance u = next(opened++);
    StreamRecord record;
    record.audio_index = u.index;
    record.samples = u.samples.size();
    record.t0_us = now_us();
    const std::size_t index = ledger.add(record);
    const serve::OpenResult result =
        recognizer.try_open_stream(stream_config());
    if (!result.ok()) {
      ledger.fail(index);
      return;
    }
    stream_of.emplace(result.handle.id, index);
    const std::span<const float> audio(u.samples);
    for (std::size_t offset = 0; offset < audio.size();
         offset += kChunkSamples) {
      (void)recognizer.submit_audio(
          result.handle,
          audio.subspan(offset, std::min(kChunkSamples, audio.size() - offset)));
    }
    (void)recognizer.finish_stream(result.handle);
    times.submit_us += now_us() - record.t0_us;
  };

  // The first wave ramps in, one stream every kRampSteps rounds, so that
  // equal-length streams finish (and are replaced) at evenly spread times
  // instead of in lockstep.
  constexpr std::size_t kRampSteps = 2;
  std::size_t ramped = 0;
  std::vector<serve::RecognizerEvent> events;
  for (std::size_t round = 0;
       ramped < kLocalConcurrency || !stream_of.empty(); ++round) {
    if (ramped < kLocalConcurrency && round % kRampSteps == 0) {
      open_one();
      ++ramped;
    }
    if (on_tick) on_tick(now_us());
    const double t0 = now_us();
    (void)recognizer.step();
    const double t1 = now_us();
    events.clear();
    recognizer.poll_events(events);
    const double t2 = now_us();
    times.step_us += t1 - t0;
    times.poll_us += t2 - t1;
    ++times.steps;
    for (const serve::RecognizerEvent& e : events) {
      const auto it = stream_of.find(e.stream.id);
      if (it == stream_of.end()) continue;
      ledger.on_event(it->second, e.event, t2);
      if (e.event.is_final) {
        (void)recognizer.close_stream(e.stream);
        stream_of.erase(it);
        if (t2 < stop_us) open_one();
      }
    }
    if (!events.empty()) dog.beat(ledger.streams().size(), ledger.finished());
  }
  // A cache-hit burst can finish every stream in one round after stop_us;
  // one last tick still closes the window.
  if (on_tick) on_tick(now_us());
}

std::unique_ptr<Deployment> set_up(const WorkloadSpec& spec,
                                   obs::Telemetry* telemetry, Watchdog& dog) {
  auto d = std::make_unique<Deployment>();
  d->pruned = build_pruned_model();
  Traffic warm = warm_traffic();
  Ledger warm_ledger;
  if (spec.wire) {
    serve::ShardConfig config;
    config.shards = 2;
    // Round-robin, not least-loaded: the 4 slots open their streams in a
    // fixed order, so each slot stays on one shard and no two slots'
    // chunks collide. Least-loaded placement drifted between balanced and
    // 3-on-1 states from run to run, which moved event-lag tails by 2-4x.
    config.policy = serve::RoutePolicy::kRoundRobin;
    config.threads_per_shard = 1;
    config.engine.cache.enabled = true;
    config.engine.mfcc = front_end();
    config.engine.telemetry = telemetry;
    d->engine = std::make_unique<serve::ShardedEngine>(
        *d->pruned.model, d->pruned.masks, compile_options(false), config);
    d->engine->start();
    net::ServerConfig server_config;
    server_config.drive_recognizer = false;
    server_config.telemetry = telemetry;
    d->server =
        std::make_unique<net::RecognizerServer>(*d->engine, server_config);
    d->server->start();

    dog.arm();
    LoadgenConfig warm_config;
    warm_config.port = d->server->port();
    warm_config.connections = kWireConnections;
    warm_config.offered_load = kWireOfferedLoad;
    warm_config.start_us = now_us() + 5e3;
    warm_config.stop_us = warm_config.start_us + 0.25e6;
    warm_config.audio = [&warm](std::size_t n) {
      return warm_utterance(warm, n).samples;
    };
    warm_config.on_tick = [&](double) {
      dog.beat(warm_ledger.streams().size(), warm_ledger.finished());
    };
    (void)run_open_loop(warm_config, warm_ledger);
  } else {
    d->compiled = std::make_unique<CompiledSpeechModel>(
        *d->pruned.model, d->pruned.masks, compile_options(spec.int8));
    runtime::EngineConfig config;
    config.max_batch = kLocalConcurrency;
    config.cache.enabled = true;
    config.mfcc = front_end();
    config.telemetry = telemetry;
    d->local = std::make_unique<serve::LocalRecognizer>(*d->compiled, config);

    dog.arm();
    CallTimes ignored;
    // A short closed loop: every slot serves one warm stream, then drains.
    run_closed_loop(
        *d->local, [&warm](std::size_t n) { return warm_utterance(warm, n); },
        warm_ledger, 0.0, dog, ignored, {});
  }
  dog.disarm();
  d->warm_events = warm_ledger.events();
  if (warm_ledger.failed() > 0) {
    throw std::runtime_error("warm-up streams failed");
  }
  return d;
}

// ----------------------------------------------------------- measurement
using StageArray = std::array<obs::StageStats, obs::kStageCount>;

StageArray stage_diff(const StageArray& after, const StageArray& before) {
  StageArray out = after;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].count -= before[i].count;
    out[i].total_us -= before[i].total_us;
  }
  return out;
}

double stage_us(const StageArray& stages, obs::Stage stage) {
  return stages[static_cast<std::size_t>(stage)].total_us;
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

/// What one measured run produced.
struct RunOutcome {
  Ledger ledger;
  double xrt = 0.0;
  double late_ms_p99 = 0.0;  // wire only
  double probe_us = 0.0;     // median host-speed probe time in the window
  bool valid = true;         // the generator kept its schedule
  MetricList layers;         // traced runs only
};

/// Every per-layer metric, in output order, with its unit (values filled
/// in by the traced run; layers a workload does not run stay 0).
void declare_layer_metrics(MetricList& m, const std::vector<KernelRow>& kernels) {
  m.set("speech.mfcc_us_per_frame", 0, "us");
  m.set("speech.decode_us_per_frame", 0, "us");
  m.set("runtime.gather_us_per_step", 0, "us");
  m.set("runtime.step_us.p50", 0, "us");
  m.set("runtime.step_us.p99", 0, "us");
  m.set("runtime.mean_batch", 0, "count");
  m.set("runtime.fused_share", 0, "ratio");
  m.set("runtime.fused_width.mean", 0, "count");
  m.set("runtime.busy_share", 0, "ratio");
  m.set("runtime.lag_ms.p99", 0, "ms");
  m.set("compiler.model_us_per_frame", 0, "us");
  for (const KernelRow& k : kernels) {
    m.set("kernel." + k.name + ".us", k.us, "us");
    m.set("kernel." + k.name + ".gops", k.gops, "GOP/s");
    m.set("kernel." + k.name + ".gbps_computed", k.gbps_computed, "GB/s");
  }
  m.set("host.copy_gbps", 0, "GB/s");
  m.set("host.probe_us", 0, "us");
  m.set("cache.hit_rate", 0, "ratio");
  m.set("cache.lookups", 0, "count");
  m.set("cache.evictions", 0, "count");
  m.set("cache.resident_mb", 0, "MB");
  m.set("serve.queue_depth.max", 0, "count");
  m.set("serve.shard_lag_ms.p99", 0, "ms");
  m.set("serve.event_flush_us_per_step", 0, "us");
  m.set("net.socket_write_us_per_event", 0, "us");
  m.set("net.bytes_per_audio_s", 0, "B/audio-s");
  m.set("client.deframe_us_per_event", 0, "us");
  m.set("loadgen.late_ms.p99", 0, "ms");
  m.set("tail.first_partial_ms.p90", 0, "ms");
  m.set("tail.event_lag_ms.p99", 0, "ms");
  m.set("tail.final_ms.p90", 0, "ms");
  m.set("trace_overhead.xrt_ratio", 0, "ratio");
  m.set("trace_overhead.event_lag_p50_ratio", 0, "ratio");
  m.set("accounting.busy_us_per_frame", 0, "us");
  m.set("accounting.mfcc_share", 0, "ratio");
  m.set("accounting.gather_share", 0, "ratio");
  m.set("accounting.model_share", 0, "ratio");
  m.set("accounting.decode_share", 0, "ratio");
  m.set("accounting.event_flush_share", 0, "ratio");
  m.set("accounting.socket_write_share", 0, "ratio");
  m.set("accounting.unexplained_share", 0, "ratio");
  m.set("accounting.within_tolerance", 0, "bool");
}

/// Fills the runtime/cache/accounting rows shared by both backends.
/// `busy_us` is the engines' busy time the stage rows must explain;
/// `flush_us`/`socket_us` the event-flush and socket-write stage totals.
void set_engine_layers(MetricList& m, const runtime::RuntimeStats& stats,
                       const StageArray& stages, double busy_us,
                       double flush_us, double socket_us, double wall_us,
                       std::size_t engines) {
  const double frames = static_cast<double>(stats.frames_processed);
  const double computed = static_cast<double>(stats.cache_misses);
  const double mfcc = stage_us(stages, obs::Stage::kMfcc);
  const double gather = stage_us(stages, obs::Stage::kGather);
  const double model = stage_us(stages, obs::Stage::kLayerStep);
  const double decode = stage_us(stages, obs::Stage::kDecode);
  m.set("speech.mfcc_us_per_frame", per(mfcc, frames), "us");
  m.set("speech.decode_us_per_frame", per(decode, frames), "us");
  m.set("runtime.gather_us_per_step",
        per(gather, static_cast<double>(
                        stages[static_cast<std::size_t>(obs::Stage::kGather)]
                            .count)),
        "us");
  m.set("runtime.step_us.p50", stats.step_latency.p50_us(), "us");
  m.set("runtime.step_us.p99", stats.step_latency.p99_us(), "us");
  m.set("runtime.mean_batch", stats.mean_batch(), "count");
  m.set("runtime.fused_share",
        per(static_cast<double>(stats.fused_steps),
            static_cast<double>(stats.fused_steps + stats.fallback_steps)),
        "ratio");
  m.set("runtime.fused_width.mean", stats.fused_width.mean_us(), "count");
  m.set("runtime.busy_share",
        per(stats.busy_us, wall_us * static_cast<double>(engines)), "ratio");
  m.set("runtime.lag_ms.p99", stats.lag.p99_us() * 1e-3, "ms");
  m.set("compiler.model_us_per_frame", per(model, computed), "us");
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  m.set("cache.hit_rate", per(static_cast<double>(stats.cache_hits), lookups),
        "ratio");
  m.set("cache.lookups", lookups, "count");
  m.set("cache.evictions", static_cast<double>(stats.cache_evictions),
        "count");
  m.set("cache.resident_mb", static_cast<double>(stats.cache_bytes) * 1e-6,
        "MB");

  const double explained = mfcc + gather + model + decode + flush_us +
                           socket_us;
  const double unexplained = busy_us - explained;
  m.set("accounting.busy_us_per_frame", per(busy_us, frames), "us");
  m.set("accounting.mfcc_share", per(mfcc, busy_us), "ratio");
  m.set("accounting.gather_share", per(gather, busy_us), "ratio");
  m.set("accounting.model_share", per(model, busy_us), "ratio");
  m.set("accounting.decode_share", per(decode, busy_us), "ratio");
  m.set("accounting.event_flush_share", per(flush_us, busy_us), "ratio");
  m.set("accounting.socket_write_share", per(socket_us, busy_us), "ratio");
  m.set("accounting.unexplained_share", per(unexplained, busy_us), "ratio");
  m.set("accounting.within_tolerance",
        std::abs(per(unexplained, busy_us)) <= kAccountingTolerance ? 1 : 0,
        "bool");
}

RunOutcome measure_wire(Deployment& d, const Options& opt, Traffic& traffic,
                        Watchdog& dog, obs::Telemetry* telemetry) {
  RunOutcome out;
  Ledger& ledger = out.ledger;
  const double start = now_us() + 20e3;
  const double window_start = start + kWirePrerollSeconds * 1e6;
  const double window_end = window_start + opt.seconds * 1e6;
  ledger.set_window(window_start, window_end);
  WindowMarks marks(window_start, window_end);
  serve::ShardedEngine& engine = *d.engine;
  std::size_t queue_max = 0;
  std::vector<double> shard_lag_ms;
  std::size_t beat_events = 0;
  HostSpeedProbe probe;

  LoadgenConfig config;
  config.port = d.server->port();
  config.connections = kWireConnections;
  config.offered_load = kWireOfferedLoad;
  config.start_us = start;
  config.stop_us = window_end;
  config.audio = [&traffic](std::size_t n) {
    return traffic.next(n).samples;
  };
  config.on_tick = [&](double now) {
    marks.observe(now, ledger.recognized_seconds());
    if (now >= window_start && now < window_end) {
      probe.maybe_sample(now, kProbeIntervalUs);
    }
    if (ledger.events() != beat_events) {
      beat_events = ledger.events();
      dog.beat(ledger.streams().size(), ledger.finished());
    }
    if (telemetry != nullptr && now >= window_start && now < window_end) {
      for (std::size_t s = 0; s < engine.shard_count(); ++s) {
        queue_max = std::max(queue_max, engine.queue_depth(s));
        shard_lag_ms.push_back(engine.shard_lag_seconds(s) * 1e3);
      }
    }
  };
  dog.arm();
  const LoadgenResult load = run_open_loop(config, ledger);
  d.stop();
  dog.disarm();

  out.xrt = marks.xrt();
  out.probe_us = probe.median_us();
  out.late_ms_p99 = quantile(load.late_ms, 0.99);
  out.valid = out.late_ms_p99 <= kMaxLateMsP99;
  if (telemetry == nullptr) return out;

  // Traced: the engines are stopped, so their stats are readable. Stats
  // and spans both cover the whole serving life (warm-up included).
  const serve::GlobalStats global = engine.stats();
  const StageArray stages = telemetry->trace().stage_stats();
  const double flush = stage_us(stages, obs::Stage::kEventFlush);
  const double socket = stage_us(stages, obs::Stage::kSocketWrite);
  const double busy = global.merged.busy_us +
                      stage_us(stages, obs::Stage::kMfcc) + flush + socket;
  MetricList& m = out.layers;
  set_engine_layers(m, global.merged, stages, busy, flush, socket,
                    global.wall_us, engine.shard_count());
  m.set("serve.queue_depth.max", static_cast<double>(queue_max), "count");
  m.set("serve.shard_lag_ms.p99", quantile(shard_lag_ms, 0.99), "ms");
  m.set("serve.event_flush_us_per_step",
        per(flush, static_cast<double>(global.merged.steps)), "us");
  const double events = static_cast<double>(ledger.events() + d.warm_events);
  m.set("net.socket_write_us_per_event", per(socket, events), "us");
  double audio_s = 0.0;
  for (const StreamRecord& s : ledger.streams()) {
    audio_s += static_cast<double>(s.samples) / kSampleRate;
  }
  m.set("net.bytes_per_audio_s",
        per(static_cast<double>(load.bytes_sent + load.bytes_received),
            audio_s),
        "B/audio-s");
  m.set("client.deframe_us_per_event",
        per(load.deframe_us, static_cast<double>(load.frames_received)),
        "us");
  m.set("loadgen.late_ms.p99", out.late_ms_p99, "ms");
  return out;
}

RunOutcome measure_local(Deployment& d, const Options& opt, Traffic& traffic,
                         Watchdog& dog, obs::Telemetry* telemetry) {
  RunOutcome out;
  Ledger& ledger = out.ledger;
  serve::LocalRecognizer& recognizer = *d.local;
  const double window_start = now_us() + kLocalPrerollSeconds * 1e6;
  const double window_end = window_start + opt.seconds * 1e6;
  ledger.set_window(window_start, window_end);
  WindowMarks marks(window_start, window_end);
  CallTimes times;
  CallTimes at_start;
  CallTimes at_end;
  StageArray stages_start{};
  StageArray stages_end{};
  runtime::RuntimeStats stats;
  HostSpeedProbe probe;

  const auto on_tick = [&](double now) {
    if (now >= window_start && now < window_end) {
      probe.maybe_sample(now, kProbeIntervalUs);
    }
    const int edge = marks.observe(now, ledger.recognized_seconds());
    if (edge == 1) {
      recognizer.reset_stats();
      at_start = times;
      if (telemetry != nullptr) stages_start = telemetry->trace().stage_stats();
    } else if (edge == -1) {
      stats = recognizer.engine().stats();
      at_end = times;
      if (telemetry != nullptr) stages_end = telemetry->trace().stage_stats();
    }
  };
  dog.arm();
  run_closed_loop(
      recognizer, [&traffic](std::size_t n) { return traffic.next(n); },
      ledger, window_end, dog, times, on_tick);
  dog.disarm();
  out.xrt = marks.xrt();
  out.probe_us = probe.median_us();
  if (telemetry == nullptr) return out;

  // Traced: window-only totals (stats reset and spans snapshot at the
  // window's start). The benchmark's own timers bound the engine's busy
  // time: submit (MFCC inside push_audio), step, and poll (event flush).
  const StageArray stages = stage_diff(stages_end, stages_start);
  const double submit = at_end.submit_us - at_start.submit_us;
  const double step = at_end.step_us - at_start.step_us;
  const double poll = at_end.poll_us - at_start.poll_us;
  const double steps = static_cast<double>(at_end.steps - at_start.steps);
  MetricList& m = out.layers;
  set_engine_layers(m, stats, stages, submit + step + poll, poll, 0.0,
                    marks.wall_us(), 1);
  m.set("serve.event_flush_us_per_step", per(poll, steps), "us");
  return out;
}

// ----------------------------------------------------------- output check
struct CheckSummary {
  std::size_t checked = 0;
  double mean_ref_tokens = 0.0;
  double aggregate_match = 1.0;  // 1 - all edits / all reference tokens
  double min_match = 1.0;        // worst single stream
};

/// Marks every stream that did not finish cleanly, or whose final frame
/// count is wrong, as failed; then re-derives the reference hypothesis for
/// up to `budget` streams spread evenly over the run and fails those that
/// do not match it: fp32 must be bit-identical; int8 must reach the pooled
/// token-match floor.
CheckSummary check_outputs(Ledger& ledger, const CompiledSpeechModel& fp32,
                           const Traffic& traffic, bool int8,
                           std::size_t budget) {
  const std::size_t n = ledger.streams().size();
  for (std::size_t i = 0; i < n; ++i) {
    const StreamRecord& s = ledger.streams()[i];
    if (!s.done || s.final_frames != feature_frames(s.samples)) {
      ledger.fail(i);
    }
  }
  std::vector<std::size_t> sampled;
  for (std::size_t k = 0; k < std::min(budget, n); ++k) {
    sampled.push_back(budget >= n ? k : k * n / budget);
  }
  std::map<std::size_t, std::vector<std::uint16_t>> refs;
  for (const std::size_t i : sampled) refs[ledger.streams()[i].audio_index];
  std::vector<std::map<std::size_t, std::vector<std::uint16_t>>::iterator>
      jobs;
  for (auto it = refs.begin(); it != refs.end(); ++it) jobs.push_back(it);
  std::vector<std::exception_ptr> errors(kCheckThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kCheckThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t j = t; j < jobs.size(); j += kCheckThreads) {
          jobs[j]->second =
              reference_hypothesis(fp32, traffic.audio(jobs[j]->first));
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  CheckSummary summary;
  double ref_tokens = 0.0;
  double matched_tokens = 0.0;
  for (const std::size_t i : sampled) {
    const StreamRecord& s = ledger.streams()[i];
    const std::vector<std::uint16_t>& ref = refs[s.audio_index];
    const double match = token_match(ref, s.hypothesis);
    if (!int8 && s.hypothesis != ref) ledger.fail(i);
    ++summary.checked;
    ref_tokens += static_cast<double>(ref.size());
    matched_tokens += match * static_cast<double>(ref.size());
    summary.min_match = std::min(summary.min_match, match);
  }
  if (summary.checked > 0) {
    summary.mean_ref_tokens = ref_tokens / static_cast<double>(summary.checked);
    summary.aggregate_match = per(matched_tokens, ref_tokens);
  }
  if (int8 && summary.aggregate_match < kInt8TokenMatchFloor) {
    for (const std::size_t i : sampled) {
      const StreamRecord& s = ledger.streams()[i];
      if (token_match(refs[s.audio_index], s.hypothesis) <
          kInt8TokenMatchFloor) {
        ledger.fail(i);
      }
    }
  }
  return summary;
}

// ------------------------------------------------------------------ runs
struct RunResult {
  RunOutcome outcome;
  CheckSummary check;
  double peak_rss_mb = 0.0;
  std::vector<KernelRow> kernels;  // traced only
};

RunResult serve_once(const WorkloadSpec& spec, const Options& opt,
                     Deployment& d, Watchdog& dog,
                     obs::Telemetry* telemetry) {
  RunResult r;
  Traffic traffic(spec, opt.seed);
  r.outcome = spec.wire ? measure_wire(d, opt, traffic, dog, telemetry)
                        : measure_local(d, opt, traffic, dog, telemetry);
  r.peak_rss_mb = peak_rss_mb();
  // The output check runs outside the timed window, against an fp32
  // model compiled exactly like the served fp32 replicas.
  std::unique_ptr<CompiledSpeechModel> fp32;
  const CompiledSpeechModel* reference =
      spec.wire ? &d.engine->shard_model(0) : d.compiled.get();
  if (spec.int8) {
    fp32 = std::make_unique<CompiledSpeechModel>(
        *d.pruned.model, d.pruned.masks, compile_options(false));
    reference = fp32.get();
  }
  r.check = check_outputs(r.outcome.ledger, *reference, traffic, spec.int8,
                          spec.repeat ? std::numeric_limits<std::size_t>::max()
                                      : kCheckedStreams);
  if (telemetry != nullptr) {
    r.kernels = kernel_roofline(
        d.pruned, spec.wire ? d.engine->shard_model(0) : *d.compiled);
  }
  return r;
}

/// Latency tails (untraced run). They are reported, not gated: on a shared
/// VM a slow phase of the host stretches them 2-3x while the medians move
/// 1.2-1.5x, so as bounded end-to-end metrics they would flag the host
/// rather than the program.
void set_tails(MetricList& m, const Ledger& ledger) {
  m.set("tail.first_partial_ms.p90", quantile(ledger.first_partial_ms(), 0.9),
        "ms");
  m.set("tail.event_lag_ms.p99", quantile(ledger.event_lag_ms(), 0.99), "ms");
  m.set("tail.final_ms.p90", quantile(ledger.final_ms(), 0.9), "ms");
}

/// `measured`: the untraced run's end-to-end values before host-speed
/// scaling (null for a traced run).
std::string provenance_json(const WorkloadSpec& spec, const Options& opt,
                            const RunResult& r,
                            const std::vector<double>& setup_s,
                            const MetricList* measured) {
  const Ledger& ledger = r.outcome.ledger;
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i > 0 ? ", " : "") + json_number(setup_s[i]);
  }
  setups += "]";
  MetricList tails;
  set_tails(tails, ledger);
  return std::string("{\"workload\": ") + json_string(spec.name) +
         ", \"why\": " + json_string(spec.why) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + json_number(opt.seconds) +
         ", \"preroll_seconds\": " +
         json_number(spec.wire ? kWirePrerollSeconds : kLocalPrerollSeconds) +
         ", \"trace\": " + (opt.trace ? "true" : "false") +
         (spec.wire ? ", \"offered_load_audio_s_per_s\": " +
                          json_number(kWireOfferedLoad) +
                          ", \"connections\": " +
                          std::to_string(kWireConnections) +
                          ", \"late_ms_p99\": " +
                          json_number(r.outcome.late_ms_p99) +
                          ", \"late_ms_p99_bound\": " +
                          json_number(kMaxLateMsP99)
                    : ", \"concurrency\": " +
                          std::to_string(kLocalConcurrency)) +
         ", \"tails\": " + tails.to_json() +
         ", \"samples\": {\"streams_in_window\": " +
         std::to_string(ledger.first_partial_ms().size()) +
         ", \"events_in_window\": " +
         std::to_string(ledger.event_lag_ms().size()) +
         ", \"finals_in_window\": " +
         std::to_string(ledger.final_ms().size()) + "}" +
         ", \"check\": {\"checked_streams\": " +
         std::to_string(r.check.checked) +
         ", \"ref_tokens_mean\": " + json_number(r.check.mean_ref_tokens) +
         ", \"token_match\": " + json_number(r.check.aggregate_match) +
         ", \"token_match_min\": " + json_number(r.check.min_match) +
         ", \"int8_token_match_floor\": " +
         json_number(kInt8TokenMatchFloor) + "}" +
         ", \"accounting_tolerance\": " + json_number(kAccountingTolerance) +
         ", \"setup_s\": " + setups +
         ", \"host_probe_us\": {\"reference\": " +
         json_number(kReferenceProbeUs) +
         ", \"window\": " + json_number(r.outcome.probe_us) + "}" +
         (measured != nullptr ? ", \"measured\": " + measured->to_json()
                              : std::string()) +
         ", \"host\": " + host_fingerprint_json(opt.commit) + "}";
}

int run(const Options& opt) {
  const WorkloadSpec& spec = *opt.workload;
  Watchdog dog;
  MetricList metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  const auto tally = [&](const RunResult& r) {
    attempted += r.outcome.ledger.streams().size();
    failed += r.outcome.ledger.failed();
    correct = correct && r.outcome.valid && r.outcome.ledger.failed() == 0;
  };

  if (!opt.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> d;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      d.reset();
      const double t0 = now_us();
      d = set_up(spec, nullptr, dog);
      setup_s.push_back((now_us() - t0) * 1e-6);
    }
    const RunResult r = serve_once(spec, opt, *d, dog, nullptr);
    d.reset();
    tally(r);
    const Ledger& ledger = r.outcome.ledger;
    MetricList measured;
    measured.set("setup_s", quantile(setup_s, 0.5), "s");
    measured.set("xrt", r.outcome.xrt, "audio-s/s");
    measured.set("first_partial_ms.p50",
                 quantile(ledger.first_partial_ms(), 0.5), "ms");
    measured.set("event_lag_ms.p50", quantile(ledger.event_lag_ms(), 0.5),
                 "ms");
    measured.set("final_ms.p50", quantile(ledger.final_ms(), 0.5), "ms");
    // Host slowness in the window: 1 = the reference speed, 1.3 = 30%
    // slower.
    const double scale = r.outcome.probe_us / kReferenceProbeUs;
    metrics.set("setup_s", measured.value("setup_s") / scale, "s");
    metrics.set("peak_rss_mb", r.peak_rss_mb, "MB");
    metrics.set("xrt", spec.wire ? r.outcome.xrt : r.outcome.xrt * scale,
                "audio-s/s");
    for (const char* name :
         {"first_partial_ms.p50", "event_lag_ms.p50", "final_ms.p50"}) {
      metrics.set(name, measured.value(name) / scale, "ms");
    }
    std::printf("# provenance %s\n",
                provenance_json(spec, opt, r, setup_s, &measured).c_str());
  } else {
    // Untraced and traced runs back to back: the per-layer numbers come
    // from the traced one; their ratio is the tracing overhead.
    RunResult plain;
    {
      std::unique_ptr<Deployment> d = set_up(spec, nullptr, dog);
      plain = serve_once(spec, opt, *d, dog, nullptr);
    }
    tally(plain);
    obs::Telemetry telemetry;
    RunResult traced;
    {
      std::unique_ptr<Deployment> d = set_up(spec, &telemetry, dog);
      traced = serve_once(spec, opt, *d, dog, &telemetry);
    }
    tally(traced);
    declare_layer_metrics(metrics, traced.kernels);
    metrics.merge(traced.outcome.layers);
    metrics.set("host.copy_gbps", copy_bandwidth_gbps(), "GB/s");
    metrics.set("host.probe_us", traced.outcome.probe_us, "us");
    set_tails(metrics, plain.outcome.ledger);
    metrics.set("trace_overhead.xrt_ratio",
                per(traced.outcome.xrt, plain.outcome.xrt), "ratio");
    metrics.set("trace_overhead.event_lag_p50_ratio",
                per(quantile(traced.outcome.ledger.event_lag_ms(), 0.5),
                    quantile(plain.outcome.ledger.event_lag_ms(), 0.5)),
                "ratio");
    std::printf("# provenance %s\n",
                provenance_json(spec, opt, traced, {}, nullptr).c_str());
  }
  std::printf("# metrics\n%s", metrics.to_text().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metrics.to_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  rtmobile::CliParser cli;
  cli.add_flag("workload", "wire_sharded",
               "wire_sharded | local_wide_int8 | local_repeat");
  cli.add_flag("seed", "1", "workload seed (inputs only; the model is fixed)");
  cli.add_flag("seconds", "10", "measurement window in seconds");
  cli.add_flag("trace", "0", "0 = end-to-end metrics, 1 = per-layer metrics");
  cli.add_flag("commit", "unknown", "source revision, recorded as provenance");
  Options opt;
  try {
    cli.parse(argc, argv);
    for (const WorkloadSpec& w : kWorkloads) {
      if (cli.get_string("workload") == w.name) opt.workload = &w;
    }
    if (opt.workload == nullptr) {
      throw std::invalid_argument("unknown workload " +
                                  cli.get_string("workload"));
    }
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_int("trace") != 0;
    opt.commit = cli.get_string("commit");
    if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("perfbench_serve").c_str());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
