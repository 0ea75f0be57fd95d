#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace pinatubo::sim {

CacheLevel::CacheLevel(const CacheLevelConfig& cfg) : cfg_(cfg) {
  PIN_CHECK(cfg.size_bytes > 0);
  PIN_CHECK(cfg.associativity > 0);
  PIN_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  PIN_CHECK_MSG(lines % cfg.associativity == 0,
                cfg.size_bytes << " B " << cfg.associativity
                               << "-way cache: lines not divisible by "
                                  "associativity");
  n_sets_ = lines / cfg.associativity;
  PIN_CHECK_MSG(std::has_single_bit(n_sets_),
                cfg.size_bytes << " B " << cfg.associativity
                               << "-way cache: sets not 2^k");
  ways_.resize(lines);
}

bool CacheLevel::access(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (n_sets_ - 1);
  Way* base = &ways_[set * cfg_.associativity];
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      base[w].lru = ++tick_;
      return true;
    }
  }
  return false;
}

std::int64_t CacheLevel::install(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (n_sets_ - 1);
  Way* base = &ways_[set * cfg_.associativity];
  Way* victim = base;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      victim->valid = true;
      victim->tag = line_addr;
      victim->lru = ++tick_;
      return -1;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  const auto evicted = static_cast<std::int64_t>(victim->tag);
  victim->tag = line_addr;
  victim->lru = ++tick_;
  return evicted;
}

void CacheLevel::clear() {
  std::fill(ways_.begin(), ways_.end(), Way{});
  tick_ = 0;
}

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelConfig> levels) {
  PIN_CHECK(!levels.empty());
  for (const auto& cfg : levels) levels_.emplace_back(cfg);
  served_.assign(levels_.size() + 1, 0);
}

void CacheHierarchy::access(std::uint64_t addr) {
  const std::uint64_t line = addr / levels_.front().config().line_bytes;
  for (unsigned l = 0; l < levels_.size(); ++l) {
    if (levels_[l].access(line)) {
      // Fill upward (allocate in the levels that missed).
      for (unsigned u = 0; u < l; ++u) levels_[u].install(line);
      ++served_[l];
      return;
    }
  }
  // Memory access; allocate everywhere (write-allocate policy).
  for (auto& lvl : levels_) lvl.install(line);
  ++served_[levels_.size()];
}

const CacheLevel& CacheHierarchy::level(unsigned i) const {
  PIN_CHECK(i < levels_.size());
  return levels_[i];
}

unsigned CacheHierarchy::line_bytes() const {
  return levels_.front().config().line_bytes;
}

void CacheHierarchy::reset_stats() { served_.assign(levels_.size() + 1, 0); }

void CacheHierarchy::flush() {
  for (auto& l : levels_) l.clear();
  reset_stats();
}

std::vector<CacheLevelConfig> haswell_cache_config() {
  return {
      {32 * 1024, 8, kHaswellLineBytes, 60, 400.0},                // L1
      {256 * 1024, 8, kHaswellLineBytes, kHaswellL2HitPj, 200.0},  // L2
      {6 * 1024 * 1024, 12, kHaswellLineBytes, 1000, 100.0},       // L3
  };
}

}  // namespace pinatubo::sim
