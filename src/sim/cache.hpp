// Set-associative cache hierarchy simulator (the Sniper stand-in's memory
// side).  Line-granularity, true-LRU, inclusive-enough for bandwidth/energy
// accounting: each access reports the level that served it, and the
// hierarchy keeps per-level hit counters the CPU model converts into time
// and energy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pinatubo::sim {

struct CacheLevelConfig {
  std::string name;
  std::uint64_t size_bytes = 0;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
  double hit_latency_ns = 1.0;
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
  void invalidate(std::uint64_t line_addr);

  const CacheLevelConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats();
  /// Drops all cached contents and stats, keeping the storage.
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
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Result of one hierarchy access: the level index that served it
/// (0 = L1, levels() = memory).
struct AccessOutcome {
  unsigned served_by_level;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheLevelConfig> levels);

  /// Byte-address access; line extraction uses L1's line size.
  AccessOutcome access(std::uint64_t addr, bool is_write);

  unsigned levels() const { return static_cast<unsigned>(levels_.size()); }
  const CacheLevel& level(unsigned i) const;
  /// Lines served by each level since reset; index levels() = memory.
  std::vector<std::uint64_t> served_lines() const;
  std::uint64_t memory_lines() const { return memory_lines_; }
  std::uint64_t write_lines() const { return write_lines_; }
  unsigned line_bytes() const;
  void reset_stats();
  /// Drops all cached contents and stats.
  void flush();

 private:
  std::vector<CacheLevel> levels_;
  std::vector<std::uint64_t> served_;
  std::uint64_t memory_lines_ = 0;
  std::uint64_t write_lines_ = 0;
};

/// Haswell line size and L2 energy per line access, shared by
/// `haswell_cache_config()` and the CPU model's scalar pricing (which
/// charges cached scalar bytes as L2 hits without walking the caches).
inline constexpr unsigned kHaswellLineBytes = 64;
inline constexpr double kHaswellL2HitPj = 300;

/// The paper's Haswell-class hierarchy: 32 KB L1 / 256 KB L2 / 6 MB L3.
std::vector<CacheLevelConfig> haswell_cache_config();

}  // namespace pinatubo::sim
