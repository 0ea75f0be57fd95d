// Fixed-size thread pool and deterministic parallel_for.
//
// Shards the functional-simulation hot paths (analog sensing, Monte-Carlo
// margin sweeps, per-channel schedule pricing) across cores.  Determinism
// contract: parallel_for partitions [begin, end) into contiguous chunks and
// every chunk's work depends only on its own indices (callers derive
// per-index RNG streams from a counter-based key, never from shared
// sequential state), so results are bit-identical for 1, 2, or N threads.
// Reductions follow the same rule: workers fill per-chunk slots and the
// caller folds them in chunk order.
//
// The process-wide pool is sized from (in priority order) set_global_threads,
// the PINATUBO_THREADS environment variable, or hardware_concurrency.  The
// benches and examples expose it as `--threads N` / config key `threads`;
// every one of these sources is read through parse_thread_count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pinatubo {

class ThreadPool {
 public:
  /// `threads` total workers including the calling thread; 0 picks the
  /// environment default (PINATUBO_THREADS, else hardware_concurrency).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count including the caller (>= 1).
  unsigned size() const { return size_; }

  /// Runs `body(chunk_begin, chunk_end)` over a partition of [begin, end).
  /// Chunks are contiguous, cover the range exactly, and are at least
  /// `grain` long (except possibly the last); the caller participates.
  /// Runs inline when the range is small or the pool has one thread.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// The process-wide pool (created on first use).
  static ThreadPool& global();
  /// Resizes the global pool; `threads` as in the constructor.  Not safe
  /// concurrently with global-pool parallel_for calls.
  static void set_global_threads(unsigned threads);
  /// Current size of the global pool without forcing creation side effects
  /// beyond first-use construction.
  static unsigned global_threads();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0, end = 0, grain = 1;
    std::size_t next = 0;       ///< next chunk start (under mutex)
    std::size_t in_flight = 0;  ///< chunks handed out, not yet finished
    std::exception_ptr error;   ///< first failure; rethrown by the caller
    bool done() const { return next >= end && in_flight == 0; }
  };

  void worker_loop();
  /// Executes chunks of the current task until exhausted; returns when no
  /// chunk is left to claim (in_flight chunks of others may still run).
  void drain(std::unique_lock<std::mutex>& lock);

  unsigned size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a task
  std::condition_variable done_cv_;   ///< submitter waits for completion
  Task task_;
  bool has_task_ = false;
  bool stop_ = false;
};

/// Largest thread count a flag, config key or PINATUBO_THREADS may ask for.
inline constexpr unsigned kMaxThreads = 1024;

/// Parses a thread count read from `source` (the flag, config key or
/// environment variable, named in the diagnostic).  The whole string must
/// be an unsigned decimal number; 0 means the pool default.  Throws Error
/// on anything else or on a value above kMaxThreads.
unsigned parse_thread_count(const std::string& value,
                            const std::string& source);

/// Shorthand for ThreadPool::global().parallel_for with a default grain.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace pinatubo
