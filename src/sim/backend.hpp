// Evaluation backend interface.
//
// Applications are executed once, functionally, and emit an `OpTrace`: the
// sequence of bulk bitwise operations over logical bit-vectors plus an
// aggregate of the scalar (non-bitwise) work around them.  Each backend
// prices the same trace on its architecture:
//   SIMD    — the conventional CPU (paper's baseline, on DRAM or PCM),
//   S-DRAM  — in-DRAM charge-sharing computing (Seshadri CAL'15),
//   AC-PIM  — accelerator-in-memory with digital logic at the buffers,
//   Pinatubo— the proposed design (implemented in src/pinatubo/, where the
//             allocator/scheduler it needs live),
//   Ideal   — zero-cost bitwise ops (Fig. 12's upper bound).
//
// The scalar remainder always runs on the host CPU and is identical across
// backends; Fig. 10/11 compare `bitwise` costs, Fig. 12 compares totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitvec/bitvector.hpp"
#include "mem/energy.hpp"

namespace pinatubo::sim {

/// One bulk bitwise operation over logical bit-vectors.
struct TraceOp {
  BitOp op = BitOp::kOr;
  std::vector<std::uint64_t> srcs;  ///< logical vector ids (>=2, INV: 1)
  std::uint64_t dst = 0;            ///< logical destination vector id
  std::uint64_t bits = 0;           ///< vector length in bits
  /// The host consumes the result (e.g. popcount of a frontier) — the
  /// result crosses the bus even on PIM backends.
  bool host_reads_result = false;
};

/// Largest op size whose bit count, rounded up to whole 64-bit words,
/// still fits in 64 bits.  Op traces and the SIMD model reject larger ops.
inline constexpr std::uint64_t kMaxTraceOpBits = ~std::uint64_t{0} - 63;

/// A workload's full op stream plus its scalar surroundings.
struct OpTrace {
  std::string name;
  std::vector<TraceOp> ops;

  // Scalar (non-bitwise) aggregate, executed on the host CPU in every
  // backend: ~instruction count and memory bytes touched.
  std::uint64_t scalar_ops = 0;
  std::uint64_t scalar_bytes = 0;

  /// Average density of ones in written results (drives NVM SET/RESET mix).
  double result_density = 0.5;

  /// Total bits entering bitwise ops (throughput accounting).
  std::uint64_t total_src_bits() const;
  /// Total distinct ops.
  std::size_t op_count() const { return ops.size(); }
};

/// What a backend reports for one trace.
struct BackendResult {
  mem::Cost bitwise;  ///< the bulk bitwise operations themselves
  mem::Cost scalar;   ///< host-side remainder (CPU)

  double total_time_ns() const { return bitwise.time_ns + scalar.time_ns; }
  double total_energy_pj() const {
    return bitwise.energy.total_pj() + scalar.energy.total_pj();
  }
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string name() const = 0;
  /// Prices the trace.  Backends are stateless across calls.
  virtual BackendResult execute(const OpTrace& trace) = 0;
};

}  // namespace pinatubo::sim
