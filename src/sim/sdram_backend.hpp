// S-DRAM: in-DRAM bulk bitwise computing via charge sharing
// (Seshadri et al., CAL 2015 — the paper's §6.1 "S-DRAM" baseline).
//
// Mechanism constraints, as published and as the paper describes them:
//  * DRAM reads are destructive, so operands must be COPIED into designated
//    compute rows first (RowClone AAP hops);
//  * a triple-row activation charge-shares the two operand rows with a
//    control row, leaving AND or OR in all three;
//  * only 2-row AND and OR exist — XOR and INV FALL BACK TO THE CPU
//    (SIMD on DRAM), which is what makes XOR-heavy workloads expensive;
//  * n-operand ops decompose into n-1 sequential 2-row steps.
//
// Vectors stripe across the 8 banks of a rank exactly like Pinatubo's
// layout (2^19-bit full-parallel row groups); groups beyond one rank-row
// serialize within a rank, ranks proceed in parallel.
#pragma once

#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "sim/backend.hpp"
#include "sim/cpu_model.hpp"
#include "sim/pim_params.hpp"

namespace pinatubo::sim {

class SdramBackend final : public Backend {
 public:
  explicit SdramBackend(const mem::Geometry& geo = {});

  std::string name() const override { return "S-DRAM"; }
  BackendResult execute(const OpTrace& trace) override;

  /// Cost of one n-operand AND/OR over `bits` (exposed for tests/benches).
  mem::Cost op_cost(std::size_t n_operands, std::uint64_t bits,
                    bool host_reads_result) const;

 private:
  mem::Geometry geo_;
  mem::TimingParams timing_;
  DramArrayParams dram_;
  SimdCpuModel fallback_cpu_;  ///< prices XOR/INV ops
};

}  // namespace pinatubo::sim
