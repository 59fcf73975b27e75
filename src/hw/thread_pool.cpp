#include "hw/thread_pool.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"

namespace rtmobile {
namespace {

// Spin budget before a worker or the caller sleeps. Tuned for
// sub-millisecond kernels: ~10-30 us of spinning on current hardware.
constexpr int kSpinIterations = 1 << 14;

/// Returns the first value of `word` that differs from `old`: spins for
/// kSpinIterations, then sleeps on std::atomic::wait.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) {
  for (int spin = 0; spin < kSpinIterations; ++spin) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    // Yield occasionally so spinning does not starve co-scheduled threads.
    if ((spin & 1023) == 1023) std::this_thread::yield();
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::optional<CoreRange> affinity) {
  RT_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  RT_REQUIRE(!affinity || affinity->count >= 1,
             "thread pool affinity range must be non-empty");
  // The caller participates in every job, so spawn threads-1 workers to
  // keep the total concurrency at `threads`.
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i, affinity] {
      if (affinity) {
        // Core begin is reserved for the caller; workers take the rest
        // round-robin so a range narrower than the pool still covers it.
        const std::size_t slot = affinity->count > 1
                                     ? 1 + i % (affinity->count - 1)
                                     : 0;
        pin_current_thread(affinity->begin + slot);
      }
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  job_ = Job{};  // the stop job
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_chunk(std::size_t chunk) noexcept {
  try {
    job_.thunk(job_.fn, chunk, chunk * job_.n / job_.chunks,
               (chunk + 1) * job_.n / job_.chunks);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  // A job may be dispatched before this thread first runs, so start from
  // the generation the pool was built with, not from a fresh load.
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (job_.thunk == nullptr) return;
    if (index + 1 < job_.chunks) run_chunk(index + 1);
    // Last touch of this job: after this the caller may retire it.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::run(const Job& job) {
  job_ = job;
  pending_.store(static_cast<std::uint32_t>(workers_.size()),
                 std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  run_chunk(0);
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0;) {
    left = await_change(pending_, left);
  }

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    error.swap(error_);
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 16);
}

bool ThreadPool::pin_current_thread(std::size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (core >= CPU_SETSIZE) return false;
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace rtmobile
