#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(ThreadPool, SizeAtLeastOne) {
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range no bigger than the grain runs inline as one chunk.
  std::vector<int> seen;
  pool.parallel_for(3, 6, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) seen.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5}));
}

TEST(ThreadPool, ChunkOrderReductionDeterministic) {
  // Per-chunk partials folded in chunk order give the same sum for any
  // thread count — the reduction pattern the simulators rely on.
  const std::size_t n = 4096;
  auto run = [&](unsigned threads) {
    ThreadPool pool(threads);
    const std::size_t grain = 64;
    std::vector<double> partial((n + grain - 1) / grain, 0.0);
    pool.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
      double s = 0.0;
      for (std::size_t i = lo; i < hi; ++i)
        s += 1.0 / static_cast<double>(i + 1);
      partial[lo / grain] += s;
    });
    return std::accumulate(partial.begin(), partial.end(), 0.0);
  };
  const double one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(5));
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 42) PIN_CHECK_MSG(false, "boom");
                        }),
      Error);
  // The pool survives for the next task.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, 1,
                    [&](std::size_t lo, std::size_t hi) {
                      count += static_cast<int>(hi - lo);
                    });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, GlobalPoolResizable) {
  const unsigned before = ThreadPool::global_threads();
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global_threads(), 2u);
  ThreadPool::set_global_threads(before);
  EXPECT_EQ(ThreadPool::global_threads(), before);
}

TEST(ParallelFor, FreeFunctionUsesGlobalPool) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParseThreadCount, AcceptsDecimalUpToTheCap) {
  EXPECT_EQ(parse_thread_count("0", "--threads"), 0u);  // pool default
  EXPECT_EQ(parse_thread_count("4", "--threads"), 4u);
  EXPECT_EQ(parse_thread_count("007", "threads"), 7u);
  EXPECT_EQ(parse_thread_count("1024", "PINATUBO_THREADS"), kMaxThreads);
}

TEST(ParseThreadCount, RejectsAnythingButTheWholeNumber) {
  for (const char* bad :
       {"", "abc", "4x", "-1", "+4", " 4", "4 ", "0x10", "1e3", "4.0"})
    EXPECT_THROW(parse_thread_count(bad, "--threads"), Error) << bad;
}

TEST(ParseThreadCount, RejectsValuesAboveTheCap) {
  // 4294967297 wraps to 1 through a cast to unsigned; it must not.
  for (const char* big :
       {"1025", "4294967297", "99999999999999999999999999"})
    EXPECT_THROW(parse_thread_count(big, "threads"), Error) << big;
}

TEST(ParseThreadCount, DiagnosticNamesTheSource) {
  for (const char* bad : {"4x", "5000"}) {
    try {
      parse_thread_count(bad, "PINATUBO_THREADS");
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("PINATUBO_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pinatubo
