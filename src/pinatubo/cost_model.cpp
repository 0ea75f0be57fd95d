#include "pinatubo/cost_model.hpp"

#include "common/error.hpp"

namespace pinatubo::core {

PinatuboCostModel::PinatuboCostModel(const mem::Geometry& geo, nvm::Tech tech,
                                     double result_density)
    : geo_(geo), tech_(tech), timing_(mem::pcm_timing()),
      bus_(mem::ddr3_1600_bus()), energy_(nvm::cell_params(tech)),
      result_density_(result_density) {
  geo_.validate();
  PIN_CHECK(result_density >= 0.0 && result_density <= 1.0);
}

std::uint64_t PinatuboCostModel::sensed_bits(const PlanStep& s) const {
  return static_cast<std::uint64_t>(s.col_steps) * geo_.sense_step_bits();
}

std::uint64_t PinatuboCostModel::command_count(const PlanStep& s) const {
  // PIM commands broadcast to all banks of the rank (the lock-step bank
  // cluster shares row coordinates), so the command count is independent
  // of the bank count — without this the command bus would cap multi-row
  // ops far below the paper's Fig. 9 ceiling.
  switch (s.kind) {
    case StepKind::kIntraSub:
      // MRS, RESET, one ACT per opened row, one strobe per sense step, WB.
      return 1 + 1 + s.rows + s.col_steps + (s.writeback ? 1 : 0);
    case StepKind::kInterSub:
    case StepKind::kInterBank:
      // MRS, one read per operand row, logic strobe, writeback.
      return 1 + s.rows + 1 + (s.writeback ? 1 : 0);
    case StepKind::kHostRead:
      // Column read bursts: one per stripe per bank (real data moves).
      return static_cast<std::uint64_t>(geo_.banks_per_chip) * s.col_steps;
  }
  PIN_UNREACHABLE("bad StepKind");
}

mem::Cost PinatuboCostModel::step_cost(const PlanStep& s) const {
  PIN_CHECK(s.bits > 0);
  PIN_CHECK(s.col_steps >= 1);
  mem::Cost cost;
  const double t_cmds =
      static_cast<double>(command_count(s)) * bus_.cmd_slot_ns;
  const std::uint64_t hw_bits = sensed_bits(s);
  const double width = static_cast<double>(hw_bits);
  const double ones = width * result_density_;
  const double zeros = width - ones;
  cost.energy.add(mem::Energy::kCtrlCmd,
                  static_cast<double>(command_count(s)) * energy_.command_pj());

  switch (s.kind) {
    case StepKind::kIntraSub: {
      // Sensing: tRCD covers activation + the first column step.
      double t = t_cmds + timing_.t_rcd_ns +
                 (s.col_steps - 1) * timing_.t_cl_ns;
      if (s.writeback) t += timing_.t_wr_ns;
      cost.time_ns = t;
      // Wordline energy: every opened row slice in every bank and chip.
      const double slices = static_cast<double>(s.rows) *
                            geo_.banks_per_chip * geo_.chips_per_rank;
      cost.energy.add(mem::Energy::kPimActivate,
                      slices * energy_.activate_row_pj());
      cost.energy.add(mem::Energy::kPimSense,
                      energy_.sense_pj(hw_bits, s.rows, timing_.t_cl_ns));
      if (s.writeback)
        cost.energy.add(mem::Energy::kPimWrite,
                        energy_.write_pj(static_cast<std::uint64_t>(ones),
                                         static_cast<std::uint64_t>(zeros)));
      return cost;
    }
    case StepKind::kInterSub:
    case StepKind::kInterBank: {
      const double stream = path_.stream_ns(geo_, s.col_steps);
      double t = t_cmds + 2.0 * (timing_.t_rcd_ns + stream) +
                 (s.writeback ? timing_.t_wr_ns + stream : 0.0);
      // Reads: sensing + GDL + buffer latch for both operands.
      const double read_pj_bit =
          energy_.sense_pj(1, 1, timing_.t_cl_ns) + path_.gdl_pj_per_bit +
          path_.latch_pj_per_bit;
      cost.energy.add(mem::Energy::kPimBufferRead, 2.0 * width * read_pj_bit);
      cost.energy.add(mem::Energy::kPimBufferLogic,
                      width * path_.logic_pj_per_bit);
      if (s.writeback) {
        cost.energy.add(mem::Energy::kPimWrite,
                        energy_.write_pj(static_cast<std::uint64_t>(ones),
                                         static_cast<std::uint64_t>(zeros)));
        cost.energy.add(mem::Energy::kPimBufferWb,
                        width * path_.gdl_pj_per_bit);
      }
      if (s.kind == StepKind::kInterBank && s.crosses_rank) {
        // One operand hops over the DDR bus between ranks.
        t += width / 8.0 / bus_.data_gbps;
        cost.energy.add(mem::Energy::kBusIo, bus_.io_pj(hw_bits));
      }
      cost.time_ns = t;
      return cost;
    }
    case StepKind::kHostRead: {
      // Result already latched; burst it to the CPU.
      const double bytes = static_cast<double>(s.bits) / 8.0;
      cost.time_ns = t_cmds + bytes / bus_.data_gbps;
      cost.energy.add(mem::Energy::kBusIo, bus_.io_pj(s.bits));
      return cost;
    }
  }
  PIN_UNREACHABLE("bad StepKind");
}

mem::Cost PinatuboCostModel::plan_cost(const OpPlan& plan) const {
  mem::Cost total;
  for (const auto& s : plan.steps) total += step_cost(s);
  return total;
}

std::uint64_t PinatuboCostModel::step_bus_bytes(const PlanStep& s) const {
  if (s.kind == StepKind::kHostRead) return s.bits / 8;
  if (s.kind == StepKind::kInterBank && s.crosses_rank)
    return sensed_bits(s) / 8;  // one operand hops between ranks
  return 0;
}

std::vector<mem::Command> PinatuboCostModel::lower(const OpPlan& plan) const {
  // Command encoding (bank 0 stands for the broadcast lock-step cluster):
  //   ACT        addr = operand row,   aux = activation index
  //   PIM_SENSE  addr = dst row,       aux = ABSOLUTE column stripe
  //   PIM_LOAD   addr = operand row,   aux = slot | (operand col << 8)
  //   RD         addr = result row,    aux = column stripe (host bursts)
  //   PIM_GDL/IO addr = dst row,       aux = col_start | (col_steps << 8)
  //   PIM_WB     addr = dst row,       aux = col_start | (col_steps << 8)
  std::vector<mem::Command> cmds;
  for (const auto& s : plan.steps) lower_step(s, cmds);
  return cmds;
}

void PinatuboCostModel::lower_step(const PlanStep& s,
                                   std::vector<mem::Command>& out) const {
  mem::RowAddr base;
  base.channel = s.channel;
  base.rank = s.rank;
  base.subarray = s.subarray;
  base.row = s.row % geo_.rows_per_subarray;
  const std::uint32_t window =
      s.col_start | (static_cast<std::uint32_t>(s.col_steps) << 8);
  switch (s.kind) {
    case StepKind::kIntraSub: {
      out.push_back({mem::CmdKind::kModeSet, base, s.op, 0});
      out.push_back({mem::CmdKind::kPimReset, base, s.op, 0});
      for (std::uint32_t r = 0; r < s.reads.size(); ++r)
        out.push_back({mem::CmdKind::kAct, s.reads[r], s.op, r});
      for (unsigned c = 0; c < s.col_steps; ++c)
        out.push_back({mem::CmdKind::kPimSense, base, s.op,
                       s.col_start + c});
      if (s.writeback)
        out.push_back({mem::CmdKind::kPimWriteback, s.write, s.op, window});
      break;
    }
    case StepKind::kInterSub:
    case StepKind::kInterBank: {
      const auto kind = s.kind == StepKind::kInterSub
                            ? mem::CmdKind::kPimGdlOp
                            : mem::CmdKind::kPimIoOp;
      out.push_back({mem::CmdKind::kModeSet, base, s.op, 0});
      for (std::uint32_t r = 0; r < s.reads.size(); ++r) {
        const std::uint32_t col =
            r < s.read_cols.size() ? s.read_cols[r] : s.col_start;
        out.push_back({mem::CmdKind::kPimLoad, s.reads[r], s.op,
                       r | (col << 8)});
      }
      out.push_back({kind, base, s.op, window});
      if (s.writeback)
        out.push_back({mem::CmdKind::kPimWriteback, s.write, s.op, window});
      break;
    }
    case StepKind::kHostRead: {
      for (unsigned b = 0; b < geo_.banks_per_chip; ++b)
        for (unsigned c = 0; c < s.col_steps; ++c) {
          mem::RowAddr a = s.reads.empty() ? base : s.reads[0];
          a.bank = b;
          out.push_back({mem::CmdKind::kRead, a, s.op, s.col_start + c});
        }
      break;
    }
  }
}

}  // namespace pinatubo::core
