#include "common/parallel.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>

#include "common/error.hpp"

namespace pinatubo {

namespace {

unsigned env_default_threads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before any worker
  // thread exists — the result seeds the pool size under global_mu().
  if (const char* env = std::getenv("PINATUBO_THREADS")) {
    const unsigned v = parse_thread_count(env, "PINATUBO_THREADS");
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  size_ = threads == 0 ? env_default_threads() : threads;
  // size_ - 1 background workers; the submitting thread is the last worker.
  for (unsigned i = 1; i < size_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(std::unique_lock<std::mutex>& lock) {
  while (has_task_ && task_.next < task_.end) {
    const std::size_t lo = task_.next;
    const std::size_t hi = std::min(task_.end, lo + task_.grain);
    task_.next = hi;
    ++task_.in_flight;
    const auto* body = task_.body;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*body)(lo, hi);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    --task_.in_flight;
    if (err) {
      if (!task_.error) task_.error = err;
      task_.next = task_.end;  // cancel unclaimed chunks
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || (has_task_ && task_.next < task_.end);
    });
    if (stop_) return;
    drain(lock);
    if (task_.done()) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  PIN_CHECK(grain >= 1);
  const std::size_t n = end - begin;
  if (size_ == 1 || n <= grain) {
    // Chunk exactly as the parallel path would: the [begin,end,grain)
    // decomposition is part of the determinism contract (chunk-ordered
    // reductions must not depend on the thread count).
    for (std::size_t lo = begin; lo < end; lo += grain)
      body(lo, std::min(end, lo + grain));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  PIN_CHECK_MSG(!has_task_, "nested parallel_for on the same pool");
  task_ = Task{&body, begin, end, grain, begin, 0, nullptr};
  has_task_ = true;
  work_cv_.notify_all();
  drain(lock);  // the caller participates
  done_cv_.wait(lock, [this] { return task_.done(); });
  has_task_ = false;
  if (task_.error) {
    std::exception_ptr err = std::move(task_.error);
    task_.error = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mu());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_threads(unsigned threads) {
  std::lock_guard<std::mutex> lock(global_mu());
  global_slot() = std::make_unique<ThreadPool>(threads);
}

unsigned ThreadPool::global_threads() { return global().size(); }

unsigned parse_thread_count(const std::string& value,
                            const std::string& source) {
  // from_chars takes no sign, space or base prefix for an unsigned type.
  unsigned long long v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v, 10);
  PIN_CHECK_MSG(ptr == end && ec != std::errc::invalid_argument,
                source << ": bad thread count '" << value
                       << "' (want a decimal number, 0 = pool default)");
  PIN_CHECK_MSG(ec == std::errc() && v <= kMaxThreads,
                source << ": thread count " << value << " is above the cap of "
                       << kMaxThreads);
  return static_cast<unsigned>(v);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

}  // namespace pinatubo
