// Set-associative cache hierarchy simulator (the Sniper stand-in's memory
// side).  Line-granularity, true-LRU and non-inclusive: a hit touches the
// line, a miss installs it in every level that missed (write-allocate).
// The hierarchy tallies the lines each level (or memory) served, which the
// CPU model converts into time and energy.
//
// A bulk op streams whole vectors, so the hierarchy is walked one op at a
// time over runs of sets rather than one line at a time:
//  * Levels are feed-forward: level l sees exactly level l-1's misses, and
//    its state never affects an earlier level, so an op walks the levels
//    one after another.
//  * A level keeps each set's contents as tags (line >> log2(sets)) in LRU
//    order.  Adjacent sets with equal contents that receive the same
//    sequence of tags evolve identically, so one representative set per
//    run is simulated and its hits are counted once per set of the run.
//  * Level 0's input runs are cut where a stream's first line and its
//    one-past-last line fall (mod the set count).  Set j*n + s of a level
//    with R = n'/n times the n sets of the level above receives that
//    level's misses on set s whose tag is j mod R, with the tag divided by
//    R.  Set counts must therefore be powers of two that never decrease.
//  * Adjacent runs whose contents end up equal merge, so a streaming op
//    leaves a few runs per level; the walk costs roughly streams x lines x
//    runs / sets per level instead of streams x lines, and degrades to
//    one-set runs (the per-line walk) when the contents fragment.
// The served-line counts are exactly those of walking every line.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pinatubo::sim {

struct CacheLevelConfig {
  std::uint64_t size_bytes = 0;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
  double hit_energy_pj = 100.0;   ///< per line access
  double bandwidth_gbps = 100.0;  ///< aggregate sustained
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheLevelConfig> levels);

  /// Walks one op: line i of every stream for i = 0..lines-1, each line in
  /// stream order (srcs first, then dst), where stream k's line i is
  /// `stream_base_lines[k] + i`.  Tallies each access under the level (or
  /// memory) that served it.
  void walk(std::span<const std::uint64_t> stream_base_lines,
            std::uint64_t lines);

  unsigned levels() const { return static_cast<unsigned>(levels_.size()); }
  const CacheLevelConfig& level_config(unsigned i) const;
  /// Lines served by each level since reset; index levels() = memory.
  const std::vector<std::uint64_t>& served_lines() const { return served_; }
  unsigned line_bytes() const;
  void reset_stats();
  /// Drops all cached contents and stats.
  void flush();

 private:
  /// One level's state: each set names a content slot; a slot holds up to
  /// `ways` tags, most recently used first, and counts the sets naming it.
  struct Level {
    CacheLevelConfig cfg;
    unsigned ways = 0;
    unsigned set_bits = 0;
    std::vector<std::uint32_t> slot_of_set;
    std::vector<std::uint64_t> tags;  // slot * ways + way
    std::vector<unsigned> fill;       // valid ways per slot
    std::vector<std::uint64_t> refs;  // sets naming each slot
    std::vector<std::uint32_t> free_slots;

    std::uint64_t sets() const { return std::uint64_t{1} << set_bits; }
    void clear();
    /// Gives sets [begin, end) the contents `c[0..n)`, sharing an equal
    /// neighbour's slot so that adjacent equal runs merge.
    void store(std::uint64_t begin, std::uint64_t end, const std::uint64_t* c,
               unsigned n);
  };
  /// Sets [begin, end) of a level, all receiving the accesses
  /// tags_in_[first .. first + count).
  struct Segment {
    std::uint64_t begin, end, first, count;
  };

  void split_streams(std::span<const std::uint64_t> bases,
                     std::uint64_t from, std::uint64_t lines);
  void walk_level(unsigned l);

  std::vector<Level> levels_;
  std::vector<std::uint64_t> served_;
  // Per-op scratch, reused so that a walk in steady state does not allocate.
  std::vector<Segment> segs_in_, segs_out_;
  std::vector<std::uint64_t> tags_in_, tags_out_;
  std::vector<std::uint64_t> cuts_, offsets_, content_, misses_;
  std::vector<std::uint32_t> order_, touched_;
  std::vector<std::uint64_t> bucket_;
};

/// Haswell line size and L2 energy per line access, shared by
/// `haswell_cache_config()` and the CPU model's scalar pricing (which
/// charges cached scalar bytes as L2 hits without walking the caches).
inline constexpr unsigned kHaswellLineBytes = 64;
inline constexpr double kHaswellL2HitPj = 300;

/// The paper's Haswell-class hierarchy: 32 KB L1 / 256 KB L2 / 6 MB L3.
std::vector<CacheLevelConfig> haswell_cache_config();

}  // namespace pinatubo::sim
