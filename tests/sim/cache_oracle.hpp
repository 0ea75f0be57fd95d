// The per-line cache walk, kept as the reference the run walk of
// `sim::CacheHierarchy` must reproduce: every access looks up each level in
// turn, a hit touches the line's LRU stamp, and a miss installs the line in
// every level that missed (write-allocate, true LRU, non-inclusive).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sim/cache.hpp"

namespace pinatubo::sim::oracle {

/// One cache level with true-LRU replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelConfig& cfg) : cfg_(cfg) {
    PIN_CHECK(cfg.size_bytes > 0);
    PIN_CHECK(cfg.associativity > 0);
    PIN_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
    const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
    PIN_CHECK(lines % cfg.associativity == 0);
    n_sets_ = lines / cfg.associativity;
    PIN_CHECK(std::has_single_bit(n_sets_));
    ways_.resize(lines);
  }

  /// True if the line is present (and touches LRU state).
  bool access(std::uint64_t line_addr) {
    Way* base = set_of(line_addr);
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      if (base[w].valid && base[w].tag == line_addr) {
        base[w].lru = ++tick_;
        return true;
      }
    }
    return false;
  }

  /// Installs the line, evicting LRU if needed; returns evicted line or -1.
  std::int64_t install(std::uint64_t line_addr) {
    Way* base = set_of(line_addr);
    Way* victim = base;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      if (!base[w].valid) {
        base[w] = {line_addr, ++tick_, true};
        return -1;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    const auto evicted = static_cast<std::int64_t>(victim->tag);
    *victim = {line_addr, ++tick_, true};
    return evicted;
  }

  const CacheLevelConfig& config() const { return cfg_; }
  void clear() {
    std::fill(ways_.begin(), ways_.end(), Way{});
    tick_ = 0;
  }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  Way* set_of(std::uint64_t line_addr) {
    return &ways_[(line_addr & (n_sets_ - 1)) * cfg_.associativity];
  }
  CacheLevelConfig cfg_;
  std::vector<Way> ways_;  // sets * associativity
  std::uint64_t n_sets_;
  std::uint64_t tick_ = 0;
};

/// The hierarchy walked one line at a time.
class Hierarchy {
 public:
  explicit Hierarchy(const std::vector<CacheLevelConfig>& levels) {
    for (const auto& cfg : levels) levels_.emplace_back(cfg);
    served_.assign(levels_.size() + 1, 0);
  }

  /// Byte-address access, tallied under the level that served it; line
  /// extraction uses L1's line size.
  void access(std::uint64_t addr) {
    access_line(addr / levels_.front().config().line_bytes);
  }

  void access_line(std::uint64_t line) {
    for (unsigned l = 0; l < levels_.size(); ++l) {
      if (levels_[l].access(line)) {
        for (unsigned u = 0; u < l; ++u) levels_[u].install(line);
        ++served_[l];
        return;
      }
    }
    for (auto& lvl : levels_) lvl.install(line);
    ++served_[levels_.size()];
  }

  /// The accesses `CacheHierarchy::walk` makes, one line at a time.
  void walk(std::span<const std::uint64_t> stream_base_lines,
            std::uint64_t lines) {
    for (std::uint64_t i = 0; i < lines; ++i)
      for (const std::uint64_t b : stream_base_lines) access_line(b + i);
  }

  const std::vector<std::uint64_t>& served_lines() const { return served_; }
  void reset_stats() { served_.assign(levels_.size() + 1, 0); }
  void flush() {
    for (auto& l : levels_) l.clear();
    reset_stats();
  }

 private:
  std::vector<CacheLevel> levels_;
  std::vector<std::uint64_t> served_;
};

}  // namespace pinatubo::sim::oracle
