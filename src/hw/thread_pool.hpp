// Fixed-size fork-join thread pool with a static-partition parallel_for.
//
// This is the execution substrate for the "mobile CPU" measured path. RNN
// inference dispatches hundreds of sub-millisecond matvecs per frame, so
// dispatch latency dominates unless workers stay hot: both sides of the
// handshake spin briefly before sleeping on std::atomic::wait, and the
// calling thread runs a chunk itself.
//
// One job is one handshake. The caller writes the job record, sets
// `pending_` to the worker count and bumps `generation_` (release).
// Worker i sees the bump, runs chunk i + 1 if that chunk exists, then
// decrements `pending_`; the decrement that reaches zero wakes the
// caller. The caller runs chunk 0 and returns once `pending_` is zero.
//
// Invariant: a worker reads the job record only between seeing the
// generation bump and its own `pending_` decrement. So the caller, which
// returns only after every decrement, never retires a job a worker can
// still read, and the next bump cannot come before every worker has
// finished with the last job, so no worker can miss a job or its wakeup.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace rtmobile {

/// A contiguous range of CPU cores to pin a pool's workers onto. The
/// sharded serving layer (with ShardConfig::pin_cores) builds one per
/// shard, [s * threads_per_shard, ...), so engine replicas don't fight
/// over cores.
struct CoreRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` - 1 persistent workers (`threads` >= 1). When
  /// `affinity` is set, spawned workers are pinned round-robin onto that
  /// core range (best-effort: unsupported platforms and invalid cores are
  /// ignored). Core `affinity->begin` is left for the calling thread,
  /// which participates in every job and can pin itself via
  /// pin_current_thread().
  explicit ThreadPool(std::size_t threads,
                      std::optional<CoreRange> affinity = std::nullopt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (the calling thread counts as one worker).
  [[nodiscard]] std::size_t thread_count() const {
    return workers_.size() + 1;
  }

  /// Splits [0, n) into one contiguous chunk per worker and runs
  /// fn(chunk_begin, chunk_end) on each; blocks until all chunks finish.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  template <class Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    parallel_for_indexed(
        n, [&fn](std::size_t, std::size_t begin, std::size_t end) {
          fn(begin, end);
        });
  }

  /// parallel_for variant that also hands fn the chunk index (0-based,
  /// < min(thread_count(), n)). Each chunk index runs exactly once per
  /// job, so it can key per-chunk scratch storage without locking. fn is
  /// invoked through a const reference from several threads at once.
  /// One caller at a time; not reentrant from inside fn.
  template <class Fn>
  void parallel_for_indexed(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    const std::size_t chunks = std::min(thread_count(), n);
    if (chunks == 1) {
      fn(std::size_t{0}, std::size_t{0}, n);
      return;
    }
    run({&invoke<std::remove_reference_t<Fn>>, std::addressof(fn), n,
         chunks});
  }

  /// A sensible default worker count for this host (hardware_concurrency,
  /// at least 1, capped at 16 to stay in smartphone-core territory).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Best-effort pin of the calling thread to one core; returns false when
  /// pinning is unsupported on this platform or the core does not exist.
  static bool pin_current_thread(std::size_t core);

 private:
  /// One dispatched job: chunk c covers [c * n / chunks,
  /// (c + 1) * n / chunks). A null thunk is the destructor's stop job.
  struct Job {
    void (*thunk)(const void* fn, std::size_t chunk, std::size_t begin,
                  std::size_t end) = nullptr;
    const void* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
  };

  template <class F>
  static void invoke(const void* fn, std::size_t chunk, std::size_t begin,
                     std::size_t end) {
    (*static_cast<const F*>(fn))(chunk, begin, end);
  }

  void run(const Job& job);
  void run_chunk(std::size_t chunk) noexcept;
  void worker_loop(std::size_t index);

  Job job_;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> pending_{0};
  std::mutex error_mutex_;  // guards error_ only; dispatch takes no lock
  std::exception_ptr error_;
  std::vector<std::thread> workers_;  // the caller is the extra worker
};

}  // namespace rtmobile
