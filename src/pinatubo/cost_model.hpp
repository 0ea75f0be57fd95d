// Prices execution plans on the Pinatubo hardware and lowers them to DDR
// command sequences (paper §5's "extended instructions are translated to
// DDR commands").
//
// Timing model per step (banks and chips of the executing rank operate in
// lock-step *inside* a step; the execution engine decides how steps
// compose — serial sum within a dependency chain, overlapped across
// independent ranks/channels):
//
//   intra-sub:  [MRS] [RESET]xB [ACT]xrowsxB [SENSE]xcolsxB [WB]xB on the
//               command bus, then tRCD + (cols-1)*tCL sensing and tWR
//               write recovery in the banks;
//   inter-sub:  two row reads streamed through the per-bank GDL into the
//               global row buffer logic, result written back;
//   inter-bank: the same through the IO buffer, plus a DDR bus hop when
//               the operands live in different ranks;
//   host-read:  result burst over the DDR bus to the CPU.
//
// Energy uses the NVM array model (activation, analog sensing, SET/RESET
// writes) plus the shared buffer-path constants (GDL, logic, latch) and
// the off-chip I/O energy for anything that crosses the bus.
#pragma once

#include "mem/cmd_timer.hpp"
#include "mem/energy.hpp"
#include "mem/commands.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/energy_model.hpp"
#include "pinatubo/plan.hpp"
#include "sim/pim_params.hpp"

namespace pinatubo::core {

class PinatuboCostModel {
 public:
  PinatuboCostModel(const mem::Geometry& geo, nvm::Tech tech,
                    double result_density = 0.5);

  /// Cost of one step in isolation (the unit the execution engine prices;
  /// energy is schedule-invariant, time composes per the schedule).
  mem::Cost step_cost(const PlanStep& step) const;
  /// Serial-sum cost of a full plan (a dependency chain of its steps).
  mem::Cost plan_cost(const OpPlan& plan) const;

  /// Bytes the step moves over the shared DDR data bus (host-read bursts
  /// and cross-rank operand hops; 0 for steps that stay inside a rank).
  std::uint64_t step_bus_bytes(const PlanStep& step) const;

  /// Lowers one step into its DDR command sequence.  Sequences are
  /// self-contained (each starts with a mode-set), so the engine may
  /// interleave steps of different plans in schedule order.
  void lower_step(const PlanStep& step, std::vector<mem::Command>& out) const;
  /// Lowers a plan into the DDR command stream the driver would issue.
  std::vector<mem::Command> lower(const OpPlan& plan) const;

  /// Commands a step occupies on the bus (used by timing and by tests).
  std::uint64_t command_count(const PlanStep& step) const;

  const mem::Geometry& geometry() const { return geo_; }
  const mem::BusParams& bus() const { return bus_; }
  nvm::Tech tech() const { return tech_; }

 private:
  /// Bits the hardware actually senses/moves for a step (whole column
  /// stripes, even when the logical vector only fills part of one).
  std::uint64_t sensed_bits(const PlanStep& s) const;

  mem::Geometry geo_;
  nvm::Tech tech_;
  mem::TimingParams timing_;
  mem::BusParams bus_;
  sim::BufferPathParams path_;
  nvm::ArrayEnergyModel energy_;
  double result_density_;
};

}  // namespace pinatubo::core
