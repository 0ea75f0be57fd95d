// The driver library's operation scheduler (paper §5: "optimizes and
// reschedules the operation requests, and then issues extended
// instructions").
//
// Given the placements of an op's operands it picks the cheapest hardware
// path the placements allow:
//
//   all operands on distinct rows of one subarray, column-aligned
//       -> intra-subarray multi-row activations, chained when the operand
//          count exceeds what one activation can open (tech/table limit);
//   same rank (bank cluster), different subarrays / misaligned columns
//       -> inter-subarray chain at the global row buffer, 2 operands/step;
//   different rank or cluster
//       -> inter-bank chain at the IO buffer, with a bus hop;
//
// plus a trailing host-read step when the CPU consumes the result.
// Operations whose operands share a row (within-row vectors) are rejected —
// the paper's §4.1 explicitly leaves them to remapping.
#pragma once

#include <vector>

#include "circuit/csa.hpp"
#include "mem/geometry.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/plan.hpp"

namespace pinatubo::core {

struct SchedulerConfig {
  /// Cap on rows per activation (the "Pinatubo-2" / "Pinatubo-128"
  /// configurations); the technology margin may cap it lower.
  unsigned max_rows = 128;
  nvm::Tech tech = nvm::Tech::kPcm;
};

class OpScheduler {
 public:
  OpScheduler(const mem::Geometry& geo, const SchedulerConfig& cfg);

  /// Lowers one logical op.  `srcs` are operand placements, `dst` the
  /// destination.  Throws on impossible shapes (same-row operands,
  /// cross-channel operands, empty operand list).
  OpPlan plan(BitOp op, const std::vector<Placement>& srcs,
              const Placement& dst, bool host_reads_result) const;

  /// Effective rows one activation may open for `op` (config cap and
  /// technology sensing margin combined).
  unsigned effective_max_rows(BitOp op) const;

  const SchedulerConfig& config() const { return cfg_; }

 private:
  void plan_intra(OpPlan& out, BitOp op, const std::vector<Placement>& srcs,
                  const Placement& dst) const;
  void plan_buffer(OpPlan& out, BitOp op, StepKind kind,
                   const std::vector<Placement>& srcs,
                   const Placement& dst) const;
  /// Group `g`'s row of placement `p` (bank 0: the lock-step cluster).
  mem::RowAddr row_of(const Placement& p, std::uint64_t g) const;
  /// Every step is built here: group `g`'s bit count and column steps,
  /// running at dst's group-`g` row, opening `reads` (`rows` = their count).
  PlanStep group_step(StepKind kind, BitOp op, const Placement& dst,
                      std::uint64_t g, std::vector<mem::RowAddr> reads,
                      std::vector<unsigned> read_cols) const;

  mem::Geometry geo_;
  SchedulerConfig cfg_;
  circuit::CsaModel csa_;
};

}  // namespace pinatubo::core
