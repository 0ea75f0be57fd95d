#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

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

TEST(CacheHierarchy, ServesFromClosestLevel) {
  CacheHierarchy h({tiny(1024, 2), tiny(8192, 4)});
  h.access(0);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 1}));  // memory
  h.access(0);
  EXPECT_EQ(h.served_lines(), (Served{1, 0, 1}));  // L1 now
}

TEST(CacheHierarchy, L2CatchesL1Evictions) {
  CacheHierarchy h({tiny(128, 1), tiny(8192, 4)});
  h.access(0 * 64);
  h.access(2 * 64);  // evicts line 0 from L1 (same set), still in L2
  h.access(0 * 64);
  EXPECT_EQ(h.served_lines(), (Served{0, 1, 2}));
}

TEST(CacheHierarchy, StreamingMissesEveryLine) {
  CacheHierarchy h(haswell_cache_config());
  // 32 MiB stream: far beyond L3.
  const std::uint64_t lines = 32ull * 1024 * 1024 / 64;
  for (std::uint64_t i = 0; i < lines; ++i) h.access(i * 64);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, lines}));
}

TEST(CacheHierarchy, SmallWorkingSetStaysCached) {
  CacheHierarchy h(haswell_cache_config());
  const std::uint64_t lines = 16 * 1024 / 64;  // 16 KiB fits L1
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) h.access(i * 64);
  // Only the first pass missed; the next two hit in L1.
  EXPECT_EQ(h.served_lines(), (Served{2 * lines, 0, 0, lines}));
}

TEST(CacheHierarchy, FlushForgetsEverything) {
  CacheHierarchy h(haswell_cache_config());
  h.access(0);
  h.access(0);
  h.flush();
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, 0}));
  h.access(0);
  EXPECT_EQ(h.served_lines(), (Served{0, 0, 0, 1}));  // memory again
}

/// Drives a stream with reuse and evictions: `n` accesses over a footprint
/// of `span` lines, from a fixed LCG.
void drive(CacheHierarchy& h, std::uint64_t seed, std::uint64_t n,
           std::uint64_t span) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    h.access((x >> 20) % span * 64);
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

}  // namespace
}  // namespace pinatubo::sim
