#include "sim/sdram_backend.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pinatubo::sim {

SdramBackend::SdramBackend(const mem::Geometry& geo)
    : geo_(geo), timing_(mem::dram_timing()),
      fallback_cpu_({}, MemKind::kDram) {
  geo_.validate();
}

mem::Cost SdramBackend::op_cost(std::size_t n_operands, std::uint64_t bits,
                                bool host_reads_result) const {
  PIN_CHECK(n_operands >= 2);
  PIN_CHECK(bits > 0);
  const std::uint64_t group_bits = geo_.row_group_bits();
  // Row groups execute serially (the driver issues one group's command
  // sequence at a time — the behaviour behind the paper's turning point B).
  const std::uint64_t groups = (bits + group_bits - 1) / group_bits;

  // Per group: 2 operand copies + (n-2) accumulate copies, (n-1) triple-row
  // activations, 1 result copy out.  Every step is an AAP-class row cycle.
  const double aap = dram_.aap_ns(timing_);
  const auto steps_aap = static_cast<double>(n_operands + 1);
  const auto steps_tra = static_cast<double>(n_operands - 1);
  const double group_ns = (steps_aap + steps_tra) * aap;

  mem::Cost cost;
  cost.time_ns = static_cast<double>(groups) * group_ns;

  // Energy: every AAP activates two full row groups; a TRA opens three rows
  // at once.  Last (partial) group still activates full rows.
  const double bits_per_group = static_cast<double>(group_bits);
  const double act_pj = dram_.act_pj_per_bit;
  const double e_group = steps_aap * 2.0 * bits_per_group * act_pj +
                         steps_tra * dram_.tra_row_factor * bits_per_group *
                             act_pj;
  cost.energy.add(mem::Energy::kDramAct,
                  static_cast<double>(groups) * e_group);

  if (host_reads_result) {
    const auto bus = mem::ddr3_1600_bus();
    const double bytes = static_cast<double>(bits) / 8.0;
    cost.time_ns += bytes / bus.data_gbps;
    // Off-chip transfer energy (the same DDR3 bus as the NVM machine's).
    cost.energy.add(mem::Energy::kBusIo, bus.io_pj(bits));
  }
  return cost;
}

BackendResult SdramBackend::execute(const OpTrace& trace) {
  fallback_cpu_.reset();
  BackendResult result;
  for (const auto& op : trace.ops) {
    const bool supported = op.op == BitOp::kOr || op.op == BitOp::kAnd;
    if (supported) {
      result.bitwise += op_cost(op.srcs.size(), op.bits, op.host_reads_result);
    } else {
      // XOR / INV: unsupported by charge sharing — CPU does them.
      result.bitwise += fallback_cpu_.bulk_op(op);
    }
  }
  result.scalar = fallback_cpu_.scalar(trace.scalar_ops, trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::sim
