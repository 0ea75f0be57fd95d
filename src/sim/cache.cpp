#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/error.hpp"

namespace pinatubo::sim {

void CacheHierarchy::Level::clear() {
  slot_of_set.assign(sets(), 0);
  tags.assign(ways, 0);
  fill.assign(1, 0);
  refs.assign(1, sets());
  free_slots.clear();
}

void CacheHierarchy::Level::store(std::uint64_t begin, std::uint64_t end,
                                  const std::uint64_t* c, unsigned n) {
  const auto holds = [&](std::uint32_t s) {
    return fill[s] == n &&
           std::equal(c, c + n, tags.begin() + std::size_t{s} * ways);
  };
  std::uint32_t slot = 0;
  if (begin > 0 && holds(slot_of_set[begin - 1])) {
    slot = slot_of_set[begin - 1];
  } else if (end < sets() && holds(slot_of_set[end])) {
    slot = slot_of_set[end];
  } else {
    if (free_slots.empty()) {
      slot = static_cast<std::uint32_t>(fill.size());
      tags.resize(tags.size() + ways);
      fill.push_back(0);
      refs.push_back(0);
    } else {
      slot = free_slots.back();
      free_slots.pop_back();
    }
    std::copy(c, c + n, tags.begin() + std::size_t{slot} * ways);
    fill[slot] = n;
  }
  std::fill(slot_of_set.begin() + begin, slot_of_set.begin() + end, slot);
  refs[slot] += end - begin;
}

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelConfig> levels) {
  PIN_CHECK(!levels.empty());
  std::uint64_t max_ratio = 1;
  for (const auto& cfg : levels) {
    PIN_CHECK(cfg.size_bytes > 0);
    PIN_CHECK(cfg.associativity > 0);
    PIN_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
    const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
    PIN_CHECK_MSG(lines % cfg.associativity == 0,
                  cfg.size_bytes << " B " << cfg.associativity
                                 << "-way cache: lines not divisible by "
                                    "associativity");
    const std::uint64_t sets = lines / cfg.associativity;
    PIN_CHECK_MSG(std::has_single_bit(sets),
                  cfg.size_bytes << " B " << cfg.associativity
                                 << "-way cache: sets not 2^k");
    if (!levels_.empty()) {
      PIN_CHECK_MSG(sets >= levels_.back().sets(),
                    "cache level " << levels_.size() << " has " << sets
                                   << " sets, fewer than the "
                                   << levels_.back().sets()
                                   << " of the level above it");
      max_ratio = std::max(max_ratio, sets / levels_.back().sets());
    }
    Level& lvl = levels_.emplace_back();
    lvl.cfg = cfg;
    lvl.ways = cfg.associativity;
    lvl.set_bits = static_cast<unsigned>(std::countr_zero(sets));
    lvl.clear();
  }
  bucket_.assign(max_ratio, 0);
  served_.assign(levels_.size() + 1, 0);
}

void CacheHierarchy::walk(std::span<const std::uint64_t> stream_base_lines,
                          std::uint64_t lines) {
  // Splitting an op into consecutive line ranges keeps the line-major
  // order, so a long op is walked in passes that bound the scratch buffers.
  constexpr std::uint64_t kPassLines = std::uint64_t{1} << 20;
  for (std::uint64_t from = 0; from < lines; from += kPassLines) {
    split_streams(stream_base_lines, from, std::min(kPassLines, lines - from));
    for (unsigned l = 0; l < levels_.size(); ++l) walk_level(l);
  }
}

/// Level 0's input for lines [from, from + lines) of every stream: the sets
/// between two consecutive stream cut points see the same (stream, tag)
/// sequence, which is generated for the first set of each run in
/// line-major, stream-minor order.
void CacheHierarchy::split_streams(std::span<const std::uint64_t> bases,
                                   std::uint64_t from, std::uint64_t lines) {
  const Level& top = levels_.front();
  const std::uint64_t n = top.sets();
  const std::uint64_t mask = n - 1;
  cuts_.assign(1, 0);
  for (const std::uint64_t b : bases) {
    cuts_.push_back((b + from) & mask);
    cuts_.push_back((b + from + lines) & mask);
  }
  std::sort(cuts_.begin(), cuts_.end());
  cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());

  segs_in_.clear();
  tags_in_.clear();
  offsets_.resize(bases.size());
  order_.resize(bases.size());
  for (std::size_t c = 0; c < cuts_.size(); ++c) {
    const std::uint64_t begin = cuts_[c];
    const std::uint64_t end = c + 1 < cuts_.size() ? cuts_[c + 1] : n;
    // Stream k first lands on set `begin` at line index offsets_[k]; it
    // lands again every n lines.  Equal offsets keep stream order.
    for (std::size_t k = 0; k < bases.size(); ++k)
      offsets_[k] = (begin - bases[k] - from) & mask;
    std::iota(order_.begin(), order_.end(), 0u);
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return offsets_[a] < offsets_[b];
                     });
    const std::uint64_t first = tags_in_.size();
    for (std::uint64_t base = 0; base < lines; base += n) {
      for (const std::uint32_t k : order_) {
        const std::uint64_t i = base + offsets_[k];
        if (i < lines)
          tags_in_.push_back((bases[k] + from + i) >> top.set_bits);
      }
    }
    if (tags_in_.size() > first)
      segs_in_.push_back({begin, end, first, tags_in_.size() - first});
  }
}

/// Simulates one representative set per (segment, run) piece of level l,
/// then hands its misses to level l + 1, or to memory after the last level.
void CacheHierarchy::walk_level(unsigned l) {
  Level& lvl = levels_[l];
  const bool last = l + 1 == levels_.size();
  const unsigned ratio_bits =
      last ? 0 : levels_[l + 1].set_bits - lvl.set_bits;
  const std::uint64_t ratio_mask = (std::uint64_t{1} << ratio_bits) - 1;
  content_.resize(lvl.ways);
  segs_out_.clear();
  tags_out_.clear();
  for (const Segment& seg : segs_in_) {
    for (std::uint64_t s = seg.begin; s < seg.end;) {
      const std::uint32_t slot = lvl.slot_of_set[s];
      std::uint64_t e = s + 1;
      while (e < seg.end && lvl.slot_of_set[e] == slot) ++e;
      const std::uint64_t width = e - s;

      std::uint64_t* c = content_.data();
      unsigned n = lvl.fill[slot];
      std::copy_n(lvl.tags.begin() + std::size_t{slot} * lvl.ways, n, c);
      std::uint64_t hits = 0;
      misses_.clear();
      for (std::uint64_t a = seg.first; a < seg.first + seg.count; ++a) {
        const std::uint64_t tag = tags_in_[a];
        unsigned w = 0;
        while (w < n && c[w] != tag) ++w;
        if (w < n) {
          ++hits;
        } else {
          misses_.push_back(tag);
          if (n < lvl.ways) ++n;
          w = n - 1;  // the LRU way, or the new one
        }
        std::copy_backward(c, c + w, c + w + 1);
        c[0] = tag;
      }
      lvl.refs[slot] -= width;
      if (lvl.refs[slot] == 0) lvl.free_slots.push_back(slot);
      lvl.store(s, e, c, n);
      served_[l] += hits * width;

      if (last) {
        served_[l + 1] += misses_.size() * width;
      } else {
        // Bucket the misses by the next level's set index above this
        // level's bits; each bucket feeds one run of next-level sets.
        for (const std::uint64_t tag : misses_)
          if (bucket_[tag & ratio_mask]++ == 0)
            touched_.push_back(static_cast<std::uint32_t>(tag & ratio_mask));
        std::uint64_t at = tags_out_.size();
        for (const std::uint32_t j : touched_) {
          const std::uint64_t count = bucket_[j];
          const std::uint64_t shift = std::uint64_t{j} << lvl.set_bits;
          segs_out_.push_back({shift + s, shift + e, at, count});
          bucket_[j] = at;
          at += count;
        }
        tags_out_.resize(at);
        for (const std::uint64_t tag : misses_)
          tags_out_[bucket_[tag & ratio_mask]++] = tag >> ratio_bits;
        for (const std::uint32_t j : touched_) bucket_[j] = 0;
        touched_.clear();
      }
      s = e;
    }
  }
  if (last) return;
  std::sort(segs_out_.begin(), segs_out_.end(),
            [](const Segment& a, const Segment& b) {
              return a.begin < b.begin;
            });
  std::swap(segs_in_, segs_out_);
  std::swap(tags_in_, tags_out_);
}

const CacheLevelConfig& CacheHierarchy::level_config(unsigned i) const {
  PIN_CHECK(i < levels_.size());
  return levels_[i].cfg;
}

unsigned CacheHierarchy::line_bytes() const {
  return levels_.front().cfg.line_bytes;
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
