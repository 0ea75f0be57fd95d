#include "sim/cpu_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

/// Cache levels with an energy component (cpu.L1, cpu.L2, cpu.L3).
constexpr unsigned kCacheEnergyLevels = 3;

mem::Energy cache_component(unsigned level) {
  return static_cast<mem::Energy>(
      static_cast<unsigned>(mem::Energy::kCpuL1) + level);
}

/// Virtual base address for a logical vector id: ids get disjoint, line-
/// aligned arenas so cache behaviour matches a real allocator's.
std::uint64_t vector_base(std::uint64_t id, std::uint64_t bytes) {
  const std::uint64_t stride = std::max<std::uint64_t>(
      4096, (bytes + 4095) / 4096 * 4096);
  return 0x100000000ull + id * stride;
}

}  // namespace

const char* to_string(MemKind k) {
  return k == MemKind::kDram ? "DRAM" : "PCM";
}

MemStreamParams stream_params(MemKind kind) {
  switch (kind) {
    case MemKind::kDram:
      // DDR3-1600, 1 channel, ~80% bus efficiency on streams.
      return {50.0, 10.2, 8.0, 6.0, 6.0};
    case MemKind::kPcm:
      // Longer row cycle (tRCD 18.3) and 151 ns write recovery depress
      // sustained bandwidth; write energy includes the SET/RESET pulses.
      return {70.0, 7.7, 5.1, 10.0, 28.0};
  }
  PIN_UNREACHABLE("bad MemKind");
}

SimdCpuModel::SimdCpuModel(const CpuConfig& cfg, MemKind mem)
    : cfg_(cfg), mem_(mem), mem_params_(stream_params(mem)) {
  PIN_CHECK(cfg.cores >= 1);
  PIN_CHECK(cfg.bulk_cores >= 1 && cfg.bulk_cores <= cfg.cores);
  PIN_CHECK(cfg.freq_ghz > 0);
  PIN_CHECK(cfg.simd_bits >= 8);
  PIN_CHECK(cfg.mlp >= 1);
}

double SimdCpuModel::compute_gbps() const {
  // One SIMD logic op per participating core per cycle.
  return cfg_.bulk_cores * (cfg_.simd_bits / 8.0) * cfg_.freq_ghz;
}

mem::Cost SimdCpuModel::bulk_op(const TraceOp& op) {
  PIN_CHECK(!op.srcs.empty());
  PIN_CHECK(op.bits > 0);
  if (!cache_) {
    cache_.emplace(haswell_cache_config());
    PIN_CHECK(cache_->levels() <= kCacheEnergyLevels);
  }
  CacheHierarchy& cache = *cache_;
  const std::uint64_t line = cache.line_bytes();
  // Word-aligned footprint: the host kernels (BitVector) process whole
  // 64-bit words, so the baseline is charged for the same word count the
  // PIM functional layer touches.  Identical to (bits+7)/8 for the word-
  // multiple sizes of every figure; only sub-word tails round up.
  const std::uint64_t bytes = (op.bits + 63) / 64 * 8;
  const std::uint64_t lines = (bytes + line - 1) / line;
  const std::uint64_t n_streams = op.srcs.size() + 1;  // +dst
  const std::uint64_t processed = bytes * op.srcs.size();

  cache.reset_stats();
  for (std::uint64_t i = 0; i < lines; ++i) {
    for (const auto src : op.srcs)
      cache.access(vector_base(src, bytes) + i * line);
    cache.access(vector_base(op.dst, bytes) + i * line);
  }
  // Convert the per-level service tallies into the roofline bounds.
  const auto& served = cache.served_lines();
  const double line_b = static_cast<double>(line);
  double t = static_cast<double>(processed) / compute_gbps();
  mem::Cost cost;
  for (unsigned l = 0; l < cache.levels(); ++l) {
    const auto& cfg = cache.level(l).config();
    t = std::max(t, static_cast<double>(served[l]) * line_b /
                        cfg.bandwidth_gbps);
    cost.energy.add(cache_component(l),
                    static_cast<double>(served[l]) * cfg.hit_energy_pj);
  }
  // Memory traffic: every memory-served line is read; the dirty dst lines
  // that will eventually be written back are the dst allocations among
  // those misses, assuming misses distribute evenly across streams
  // (cached dst lines get rewritten in place).
  const std::uint64_t mem_lines = served[cache.levels()];
  const double rd_bytes = static_cast<double>(mem_lines) * line_b;
  const double wr_bytes = static_cast<double>(mem_lines / n_streams) * line_b;
  t = std::max(t, rd_bytes / mem_params_.read_gbps +
                      wr_bytes / mem_params_.write_gbps);
  // Latency bound: misses overlap up to MLP per participating core —
  // the binding constraint for the paper's single-threaded kernels.
  t = std::max(t, static_cast<double>(mem_lines) * mem_params_.latency_ns /
                      (cfg_.mlp * cfg_.bulk_cores));
  cost.energy.add(mem::Energy::kMemRead,
                  rd_bytes * 8.0 * mem_params_.read_pj_per_bit);
  cost.energy.add(mem::Energy::kMemWrite,
                  wr_bytes * 8.0 * mem_params_.write_pj_per_bit);
  cost.energy.add(mem::Energy::kCpuCore,
                  cfg_.active_power_w * t * 1e3);  // W * ns -> pJ
  cost.time_ns = t;
  return cost;
}

mem::Cost SimdCpuModel::scalar(std::uint64_t ops, std::uint64_t bytes) const {
  mem::Cost cost;
  const double t_compute =
      static_cast<double>(ops) / (cfg_.scalar_ipc * cfg_.freq_ghz);
  const double miss_bytes =
      static_cast<double>(bytes) * cfg_.scalar_miss_fraction;
  const double t_mem = miss_bytes / mem_params_.read_gbps;
  cost.time_ns = t_compute + t_mem;
  cost.energy.add(mem::Energy::kCpuCore,
                  cfg_.scalar_power_w * cost.time_ns * 1e3);
  cost.energy.add(mem::Energy::kMemRead,
                  miss_bytes * 8.0 * mem_params_.read_pj_per_bit);
  // Cached portion still pays cache energy (cheap, L2-class).
  cost.energy.add(mem::Energy::kCpuL2,
                  static_cast<double>(bytes) *
                      (1.0 - cfg_.scalar_miss_fraction) / kHaswellLineBytes *
                      kHaswellL2HitPj);
  return cost;
}

void SimdCpuModel::reset() {
  if (cache_) cache_->flush();
}

}  // namespace pinatubo::sim
