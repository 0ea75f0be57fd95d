#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/bfs_bitmap.hpp"
#include "apps/bitmap_index.hpp"
#include "apps/graph.hpp"
#include "apps/vector_workload.hpp"
#include "cache_oracle.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::sim {
namespace {

using oracle::CacheLevel;

CacheLevelConfig tiny(std::uint64_t size, unsigned assoc) {
  return {size, assoc, 64, 100.0, 100.0};
}

TEST(CacheLevel, HitAfterInstall) {
  CacheLevel l(tiny(1024, 2));
  EXPECT_FALSE(l.access(5));
  l.install(5);
  EXPECT_TRUE(l.access(5));
  EXPECT_FALSE(l.access(6));
}

TEST(CacheLevel, LruEviction) {
  // 1024 B / 64 B = 16 lines, 2-way -> 8 sets.  Lines 0, 8, 16 map to set 0.
  CacheLevel l(tiny(1024, 2));
  l.install(0);
  l.install(8);
  l.access(0);        // 0 becomes MRU
  l.install(16);      // evicts 8 (LRU)
  EXPECT_TRUE(l.access(0));
  EXPECT_FALSE(l.access(8));
  EXPECT_TRUE(l.access(16));
}

TEST(CacheLevel, InstallReportsVictim) {
  CacheLevel l(tiny(128, 1));  // 2 sets, direct-mapped
  EXPECT_EQ(l.install(0), -1);
  EXPECT_EQ(l.install(2), 0);  // same set, evicts 0
}

TEST(CacheLevel, ConfigValidation) {
  EXPECT_THROW(CacheLevel(tiny(0, 1)), Error);
  EXPECT_THROW(CacheLevel(tiny(1000, 3)), Error);  // sets not 2^k
}

using Served = std::vector<std::uint64_t>;

/// One access of the per-line walk: a one-stream, one-line walk.
void access(CacheHierarchy& h, std::uint64_t addr) {
  const std::uint64_t line = addr / h.line_bytes();
  h.walk({&line, 1}, 1);
}

TEST(CacheHierarchy, ServesFromClosestLevel) {
  CacheHierarchy h({tiny(1024, 2), tiny(8192, 4)});
  access(h, 0);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 1}));  // memory
  access(h, 0);
  EXPECT_EQ(h.served_lines(), (Served{1, 0, 1}));  // L1 now
}

TEST(CacheHierarchy, L2CatchesL1Evictions) {
  CacheHierarchy h({tiny(128, 1), tiny(8192, 4)});
  access(h, 0 * 64);
  access(h, 2 * 64);  // evicts line 0 from L1 (same set), still in L2
  access(h, 0 * 64);
  EXPECT_EQ(h.served_lines(), (Served{0, 1, 2}));
}

TEST(CacheHierarchy, StreamingMissesEveryLine) {
  CacheHierarchy h(haswell_cache_config());
  // 32 MiB stream: far beyond L3.
  const std::uint64_t lines = 32ull * 1024 * 1024 / 64;
  for (std::uint64_t i = 0; i < lines; ++i) access(h, i * 64);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, lines}));
}

TEST(CacheHierarchy, SmallWorkingSetStaysCached) {
  CacheHierarchy h(haswell_cache_config());
  const std::uint64_t lines = 16 * 1024 / 64;  // 16 KiB fits L1
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) access(h, i * 64);
  // Only the first pass missed; the next two hit in L1.
  EXPECT_EQ(h.served_lines(), (Served{2 * lines, 0, 0, lines}));
}

TEST(CacheHierarchy, FlushForgetsEverything) {
  CacheHierarchy h(haswell_cache_config());
  access(h, 0);
  access(h, 0);
  h.flush();
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, 0}));
  access(h, 0);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, 1}));  // memory again
}

/// Drives a stream with reuse and evictions: `n` accesses over a footprint
/// of `span` lines, from a fixed LCG.
void drive(CacheHierarchy& h, std::uint64_t seed, std::uint64_t n,
           std::uint64_t span) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    access(h, (x >> 20) % span * 64);
  }
}

TEST(CacheHierarchy, FlushMatchesFresh) {
  const std::vector<std::vector<CacheLevelConfig>> configs = {
      haswell_cache_config(),
      {tiny(1024, 2), tiny(4096, 4)},
  };
  for (const auto& cfg : configs) {
    CacheHierarchy used(cfg);
    drive(used, 1, 50000, 200000);
    used.flush();
    drive(used, 2, 50000, 3000);
    CacheHierarchy fresh(cfg);
    drive(fresh, 2, 50000, 3000);
    EXPECT_EQ(used.served_lines(), fresh.served_lines());
  }
}

TEST(CacheHierarchy, HaswellShape) {
  const auto cfg = haswell_cache_config();
  ASSERT_EQ(cfg.size(), 3u);
  EXPECT_EQ(cfg[0].size_bytes, 32u * 1024);
  EXPECT_EQ(cfg[1].size_bytes, 256u * 1024);
  EXPECT_EQ(cfg[2].size_bytes, 6u * 1024 * 1024);
}

TEST(CacheHierarchy, RejectsSetCountsThatDecrease) {
  // A level with fewer sets than the one above would mix the misses of
  // several upper sets in one of its sets.
  try {
    CacheHierarchy h({tiny(8192, 2), tiny(8192, 8)});  // 64 sets, then 16
    FAIL() << "accepted decreasing set counts";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fewer than the 64"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(CacheHierarchy({tiny(1024, 1), tiny(4096, 8), tiny(4096, 4)}),
               Error);  // 16, 8, 16 sets
  EXPECT_NO_THROW(CacheHierarchy({tiny(1024, 2), tiny(1024, 2)}));
}

/// Walks `bases` x `lines` through both the run walk and the per-line
/// oracle and compares the served counts of that op.
::testing::AssertionResult same_walk(CacheHierarchy& h, oracle::Hierarchy& o,
                                     const std::vector<std::uint64_t>& bases,
                                     std::uint64_t lines) {
  h.reset_stats();
  o.reset_stats();
  h.walk(bases, lines);
  o.walk(bases, lines);
  if (h.served_lines() == o.served_lines())
    return ::testing::AssertionSuccess();
  auto r = ::testing::AssertionFailure() << lines << " lines from";
  for (const auto b : bases) r << ' ' << b;
  r << ": walk served";
  for (const auto s : h.served_lines()) r << ' ' << s;
  r << ", oracle";
  for (const auto s : o.served_lines()) r << ' ' << s;
  return r;
}

TEST(CacheHierarchy, RunWalkMatchesThePerLineWalk) {
  // Random op sequences: sizes from one line to past the last level's set
  // count, arena-aligned and unaligned bases, more streams than ways,
  // repeated ids and the dst among the srcs, and a flush half way.
  const std::vector<std::vector<CacheLevelConfig>> configs = {
      haswell_cache_config(),
      {tiny(512, 1), tiny(2048, 1), tiny(8192, 1)},         // direct-mapped
      {tiny(768, 3), tiny(3072, 3), tiny(12288, 3)},        // 3-way
  };
  Rng rng(2016);
  for (const auto& cfg : configs) {
    CacheHierarchy h(cfg);
    oracle::Hierarchy o(cfg);
    const std::uint64_t last_sets =
        cfg.back().size_bytes / 64 / cfg.back().associativity;
    const unsigned max_ways = cfg.back().associativity;
    constexpr unsigned kIds = 24;
    std::vector<std::uint64_t> id_offset(kIds);
    for (auto& off : id_offset) off = rng.uniform_u64(1u << 20);
    constexpr unsigned kOps = 400;
    Served total(cfg.size() + 1, 0);
    for (unsigned op = 0; op < kOps; ++op) {
      if (op == kOps / 2) {
        h.flush();
        o.flush();
      }
      const auto lines = static_cast<std::uint64_t>(std::exp(
          rng.uniform() * std::log(static_cast<double>(last_sets) * 1.5)));
      const std::uint64_t streams =
          rng.chance(0.1) ? 2 + rng.uniform_u64(max_ways + 6)
                          : 2 + rng.uniform_u64(3);
      const bool aligned = rng.chance(0.5);
      std::vector<std::uint64_t> bases;
      for (std::uint64_t k = 0; k < streams; ++k) {
        const std::uint64_t id = rng.uniform_u64(kIds);
        const std::uint64_t stride = std::max<std::uint64_t>(64, lines);
        bases.push_back(aligned ? (1ull << 26) + id * ((stride + 63) / 64 * 64)
                                : id_offset[id] + id * stride);
      }
      ASSERT_TRUE(same_walk(h, o, bases, std::max<std::uint64_t>(1, lines)))
          << "op " << op;
      for (std::size_t l = 0; l < total.size(); ++l)
        total[l] += h.served_lines()[l];
    }
    // Every level served some lines, so every level's walk was checked.
    for (std::size_t l = 0; l < total.size(); ++l)
      EXPECT_GT(total[l], 0u) << "level " << l;
  }
}

TEST(CacheHierarchy, LongOpsWalkInPassesThatKeepTheOrder) {
  // Past 2^20 lines an op is walked in consecutive line ranges.
  const std::vector<CacheLevelConfig> cfg = {tiny(512, 2), tiny(2048, 2)};
  CacheHierarchy h(cfg);
  oracle::Hierarchy o(cfg);
  ASSERT_TRUE(same_walk(h, o, {5, 5, (1u << 20) + 17}, (1u << 20) + 300));
  ASSERT_TRUE(same_walk(h, o, {1u << 20, 7}, (1u << 21) + 1));
}

TEST(CacheHierarchy, RunWalkMatchesThePerLineWalkOnAReducedSuite) {
  // Table 1 with Vector counts at 1/64 and graph nodes and index rows
  // >> 4, priced op by op as SimdCpuModel::bulk_op walks it.
  std::vector<OpTrace> suite;
  for (apps::VectorSpec spec : apps::paper_vector_specs()) {
    spec.count_log -= std::min(spec.count_log - spec.rows_log, 6u);
    suite.push_back(apps::vector_trace(spec, 17));
  }
  for (auto preset : {apps::dblp2010_like(), apps::eswiki2013_like(),
                      apps::amazon2008_like()}) {
    preset.gen.nodes >>= 4;
    suite.push_back(apps::bitmap_bfs(apps::build_dataset(preset, 17)).trace);
  }
  apps::IndexConfig cfg;
  cfg.rows >>= 4;
  const apps::BitmapIndex index(cfg, 17);
  for (const unsigned n : {240u, 480u, 720u})
    suite.push_back(
        apps::run_queries(index, apps::generate_queries(cfg, n, 17 + n)).trace);

  CacheHierarchy h(haswell_cache_config());
  oracle::Hierarchy o(haswell_cache_config());
  std::vector<std::uint64_t> bases;
  std::size_t ops = 0;
  for (const auto& trace : suite) {
    h.flush();
    o.flush();
    for (const auto& op : trace.ops) {
      const std::uint64_t lines = op_stream_lines(op, h.line_bytes(), bases);
      ASSERT_TRUE(same_walk(h, o, bases, lines))
          << trace.name << " op " << ops;
      ++ops;
    }
  }
  EXPECT_GT(ops, 5000u);
}

}  // namespace
}  // namespace pinatubo::sim
