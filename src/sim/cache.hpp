// Set-associative cache hierarchy simulator (the Sniper stand-in's memory
// side).  Line-granularity, true-LRU, inclusive-enough for bandwidth/energy
// accounting: the hierarchy tallies the lines each level (or memory)
// served, which the CPU model converts into time and energy.
#pragma once

#include <cstdint>
#include <vector>

namespace pinatubo::sim {

struct CacheLevelConfig {
  std::uint64_t size_bytes = 0;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
  double hit_energy_pj = 100.0;   ///< per line access
  double bandwidth_gbps = 100.0;  ///< aggregate sustained
};

/// One cache level with true-LRU replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelConfig& cfg);

  /// True if the line is present (and touches LRU state).
  bool access(std::uint64_t line_addr);
  /// Installs the line, evicting LRU if needed; returns evicted line or -1.
  std::int64_t install(std::uint64_t line_addr);

  const CacheLevelConfig& config() const { return cfg_; }
  /// Drops all cached contents, keeping the storage.
  void clear();

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  CacheLevelConfig cfg_;
  std::vector<Way> ways_;  // sets * associativity
  std::uint64_t n_sets_;
  std::uint64_t tick_ = 0;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheLevelConfig> levels);

  /// Byte-address access, tallied under the level that served it; line
  /// extraction uses L1's line size.
  void access(std::uint64_t addr);

  unsigned levels() const { return static_cast<unsigned>(levels_.size()); }
  const CacheLevel& level(unsigned i) const;
  /// Lines served by each level since reset; index levels() = memory.
  const std::vector<std::uint64_t>& served_lines() const { return served_; }
  unsigned line_bytes() const;
  void reset_stats();
  /// Drops all cached contents and stats.
  void flush();

 private:
  std::vector<CacheLevel> levels_;
  std::vector<std::uint64_t> served_;
};

/// Haswell line size and L2 energy per line access, shared by
/// `haswell_cache_config()` and the CPU model's scalar pricing (which
/// charges cached scalar bytes as L2 hits without walking the caches).
inline constexpr unsigned kHaswellLineBytes = 64;
inline constexpr double kHaswellL2HitPj = 300;

/// The paper's Haswell-class hierarchy: 32 KB L1 / 256 KB L2 / 6 MB L3.
std::vector<CacheLevelConfig> haswell_cache_config();

}  // namespace pinatubo::sim
