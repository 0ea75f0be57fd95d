// SIMD CPU cost model — the paper's conventional baseline (Sniper stand-in).
//
// A 4-core, 3.3 GHz, 4-issue Haswell-class processor with 128-bit SSE/AVX
// and the 32K/256K/6M cache hierarchy.  Bulk bitwise kernels are priced by
// driving their access stream through the cache simulator and converting
// per-level service counts into bandwidth/latency bounds:
//
//   t_op = max( SIMD compute,  L1/L2/L3 bandwidth,  memory bandwidth,
//               miss latency / MLP )
//
// which is the standard roofline treatment a cycle-accurate simulator
// converges to for these streaming kernels.  Very large ops (no reuse
// possible) switch to the closed-form streaming path — identical result,
// without simulating millions of lines.
//
// The same model prices the *scalar* remainder of applications (frontier
// scanning, query bookkeeping), which runs on the host in every backend.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "mem/energy.hpp"
#include "sim/backend.hpp"
#include "sim/cache.hpp"

namespace pinatubo::sim {

/// Which main memory the CPU streams from.  The paper compares SIMD-on-DRAM
/// against S-DRAM and SIMD-on-PCM against AC-PIM / Pinatubo.
enum class MemKind { kDram, kPcm };

const char* to_string(MemKind k);

/// Sustained streaming characteristics of the main memory, as a CPU sees
/// them (bus + bank effects folded into effective bandwidths).
struct MemStreamParams {
  double latency_ns;        ///< load-to-use miss latency
  double read_gbps;         ///< sustained streaming read bandwidth
  double write_gbps;        ///< sustained streaming write bandwidth
  double read_pj_per_bit;   ///< end-to-end (array + bus) read energy
  double write_pj_per_bit;  ///< end-to-end write energy
};

MemStreamParams stream_params(MemKind kind);

struct CpuConfig {
  unsigned cores = 4;
  double freq_ghz = 3.3;
  unsigned simd_bits = 128;   ///< SSE/AVX datapath width
  /// Cores running a bulk bitwise kernel.  The paper's applications
  /// (FastBit, bitmap BFS) are single-threaded codes, so the baseline's
  /// kernels are latency-bound on one core — the dominant term of its
  /// effective bandwidth.
  unsigned bulk_cores = 1;
  unsigned mlp = 4;           ///< outstanding misses per core
  double active_power_w = 40; ///< package power while the kernel runs
  double scalar_power_w = 15; ///< single-core scalar phases
  double scalar_ipc = 2.0;
  /// Fraction of scalar bytes that miss the caches (apps have locality).
  double scalar_miss_fraction = 0.3;
};

class SimdCpuModel {
 public:
  SimdCpuModel(const CpuConfig& cfg, MemKind mem);

  /// Prices one bulk bitwise op.  Cache state persists across calls so
  /// small working sets (BFS frontiers, hot bitmaps) hit in L2/L3.
  mem::Cost bulk_op(const TraceOp& op);

  /// Prices the scalar aggregate of a trace.
  mem::Cost scalar(std::uint64_t ops, std::uint64_t bytes) const;

  /// Clears cache contents (call between independent traces).
  void reset();

  MemKind mem_kind() const { return mem_; }
  const CpuConfig& config() const { return cfg_; }

  /// SIMD throughput ceiling in bytes/ns (GB/s).
  double compute_gbps() const;

 private:
  mem::Cost price(std::uint64_t processed_bytes,
                  std::span<const std::uint64_t> served_lines,
                  std::uint64_t mem_read_lines,
                  std::uint64_t mem_write_lines) const;

  CpuConfig cfg_;
  MemKind mem_;
  MemStreamParams mem_params_;
  /// Built by the first bulk op: scalar() never walks the caches, so a
  /// model that only prices scalar work skips the ~2.4 MB Haswell tag store.
  std::optional<CacheHierarchy> cache_;
};

}  // namespace pinatubo::sim
