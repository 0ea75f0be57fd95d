// Batched, dependency-aware execution engine.
//
// Takes a window of lowered `OpPlan`s (a batch), builds a read/write
// dependency graph over their `mem::RowAddr` placements, and issues the
// steps out-of-order through per-channel `mem::ChannelTimer`s.  Steps of
// independent ops that execute on different ranks or channels overlap in
// time; host-read bursts hide behind compute, serializing only on the
// shared DDR data bus.  Functional results are unaffected — the engine
// prices a schedule, it does not reorder the driver's functional
// execution — and energy is schedule-invariant, so only the makespan
// changes relative to the serial sum.
//
// Dependency rules (hazards over normalized row addresses; the bank field
// is collapsed because PIM commands broadcast across the lock-step bank
// cluster):
//   RAW — a step reading a row waits for the last step that wrote it;
//   WAW — a step writing a row waits for the previous writer of that row;
//   WAR — a step writing a row waits for every reader since that write.
// Steps with no path between them in this graph may execute in any order;
// one greedy list-scheduling pass over the whole batch (earliest start
// first, program order as the tie-break) assigns them to their executing
// rank's timeline.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/energy.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/plan.hpp"

namespace pinatubo::core {

struct EngineOptions {
  /// Disable out-of-order overlap: price the batch as the program-order
  /// serial sum of step costs (the paper's synchronous-driver baseline).
  bool serial = false;
};

/// Per-step-class accounting accumulated while pricing a batch.
struct ClassProfile {
  double time_ns[kStepKindCount] = {};     ///< serial (summed) step time
  double energy_pj[kStepKindCount] = {};   ///< energy by step class
  std::uint64_t steps[kStepKindCount] = {};
  std::uint64_t bus_bytes = 0;  ///< bytes moved over the DDR data bus

  ClassProfile& operator+=(const ClassProfile& o) {
    for (std::size_t k = 0; k < kStepKindCount; ++k) {
      time_ns[k] += o.time_ns[k];
      energy_pj[k] += o.energy_pj[k];
      steps[k] += o.steps[k];
    }
    bus_bytes += o.bus_bytes;
    return *this;
  }
};

class ExecutionEngine {
 public:
  /// One step placed on the schedule: which plan/step of the batch, and
  /// its start/completion times on the machine.
  struct ScheduledStep {
    std::uint32_t plan = 0;   ///< index into the batch
    std::uint32_t step = 0;   ///< index into that plan's steps
    double start_ns = 0.0;
    double done_ns = 0.0;
    /// Data-bus burst duration inside [start, done]: the step's trailing
    /// `bus_ns` occupy the channel's shared DDR bus (0 for steps that
    /// stay inside their rank).  Observability renders this window on
    /// the per-channel bus track.
    double bus_ns = 0.0;
  };

  struct Result {
    /// Batch cost: makespan (overlapped) or serial sum, plus total energy.
    mem::Cost cost;
    /// Program-order serial sum of step times (the no-overlap baseline;
    /// equals cost.time_ns when EngineOptions::serial is set).
    double serial_time_ns = 0.0;
    /// Per-class breakdown of where time/energy went.
    ClassProfile profile;
    /// Steps in issue order (command streams interleave in this order).
    std::vector<ScheduledStep> schedule;
  };

  explicit ExecutionEngine(const PinatuboCostModel& model,
                           EngineOptions opts = {});

  /// Prices a batch of plans.  Plans are in program order; the schedule
  /// respects every read/write hazard between their steps.
  Result run(const std::vector<OpPlan>& plans) const;

  const EngineOptions& options() const { return opts_; }

 private:
  const PinatuboCostModel* model_;
  EngineOptions opts_;
};

}  // namespace pinatubo::core
