#include "verify/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "nvm/technology.hpp"

namespace pinatubo::verify {

namespace {

using core::OpPlan;
using core::PlanStep;
using core::StepKind;

/// Relative slack for floating-point accounting comparisons: the sums are
/// computed in different orders on both sides, so exact equality is not
/// guaranteed, but anything past ~1e-9 relative is a real timing-model bug
/// (the fixed-point trace exporters round at 0.1 ns, far coarser).
double slack(double expected) { return 1e-9 * (1.0 + std::abs(expected)); }

/// Marks a plan step no schedule entry has claimed yet.
constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);

bool near(double got, double expected) {
  return std::abs(got - expected) <= slack(expected);
}

/// Hazard key: row address with the bank collapsed — identical to the
/// execution engine's (PIM commands broadcast across the lock-step bank
/// cluster, so one (channel,rank,subarray,row) slice is one unit of data).
std::uint64_t row_key(const mem::RowAddr& a) {
  return (static_cast<std::uint64_t>(a.channel) << 48) |
         (static_cast<std::uint64_t>(a.rank) << 40) |
         (static_cast<std::uint64_t>(a.subarray) << 24) |
         static_cast<std::uint64_t>(a.row);
}

std::string addr_str(const mem::RowAddr& a) { return a.to_string(); }

/// Bounds-checks one row address against the geometry.
bool addr_in_range(const mem::Geometry& g, const mem::RowAddr& a) {
  return a.channel < g.channels && a.rank < g.ranks_per_channel &&
         a.bank < g.banks_per_chip && a.subarray < g.subarrays_per_bank &&
         a.row < g.rows_per_subarray;
}

}  // namespace

Verifier::Verifier(const core::PinatuboCostModel& model, unsigned max_rows_cap)
    : model_(&model), max_rows_cap_(max_rows_cap) {}

Report Verifier::check(const OpPlan& plan) const {
  Report rep;
  std::vector<mem::Command> cmds;
  for (std::size_t i = 0; i < plan.steps.size(); ++i)
    check_step(0, i, plan.steps[i], cmds, rep);
  return rep;
}

Report Verifier::check(const std::vector<OpPlan>& plans) const {
  Report rep;
  std::vector<mem::Command> cmds;
  for (std::size_t p = 0; p < plans.size(); ++p)
    for (std::size_t i = 0; i < plans[p].steps.size(); ++i)
      check_step(p, i, plans[p].steps[i], cmds, rep);
  return rep;
}

void Verifier::check_step(std::size_t plan, std::size_t step,
                          const PlanStep& s, std::vector<mem::Command>& cmds,
                          Report& rep) const {
  const mem::Geometry& g = model_->geometry();
  const std::size_t before = rep.diags.size();
  auto add = [&](Rule r, const std::string& msg) {
    rep.add(r, plan, step, msg);
  };
  auto msg = [](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };

  // ---- shared structural checks -----------------------------------------
  if (s.reads.empty()) add(Rule::kStepEmptyReads, "step opens no rows");
  if (s.bits == 0) add(Rule::kStepShape, "step processes 0 bits");
  if (s.col_steps < 1) {
    if (s.writeback && s.kind == StepKind::kIntraSub)
      add(Rule::kWriteBypassNoSense,
          "writeback with no sensing step before it (col_steps = 0)");
    add(Rule::kStepShape, "col_steps must be >= 1");
  }
  if (!addr_in_range(g, s.at))
    add(Rule::kAddrOutOfRange,
        msg("step address ", addr_str(s.at), " out of range"));
  if (s.at.bank != 0)
    add(Rule::kClusterMismatch,
        msg("step address ", addr_str(s.at),
            " names a bank; PIM steps broadcast the cluster (bank 0)"));
  for (const mem::RowAddr& r : s.reads) {
    if (!addr_in_range(g, r))
      add(Rule::kAddrOutOfRange, msg("read ", addr_str(r), " out of range"));
    else if (r.channel != s.at.channel)
      add(Rule::kCrossChannel, msg("step on channel ", s.at.channel,
                                   " reads ", addr_str(r)));
    if (r.bank != 0)
      add(Rule::kClusterMismatch,
          msg("read ", addr_str(r),
              " names a bank; PIM reads broadcast the cluster (bank 0)"));
  }
  if (!s.read_cols.empty() && s.read_cols.size() != s.reads.size())
    add(Rule::kReadColsMismatch,
        msg(s.read_cols.size(), " read_cols for ", s.reads.size(), " reads"));
  if (static_cast<std::uint64_t>(s.col_start) + s.col_steps > g.sa_mux_share)
    add(Rule::kColumnOverflow,
        msg("column window [", s.col_start, ", ", s.col_start + s.col_steps,
            ") exceeds the mux share ", g.sa_mux_share));
  for (const unsigned c : s.read_cols)
    if (static_cast<std::uint64_t>(c) + s.col_steps > g.sa_mux_share)
      add(Rule::kColumnOverflow,
          msg("operand column window [", c, ", ", c + s.col_steps,
              ") exceeds the mux share ", g.sa_mux_share));
  if (s.crosses_rank && s.kind != StepKind::kInterBank)
    add(Rule::kClusterMismatch,
        "only inter-bank steps may cross ranks (crosses_rank set)");

  // ---- per-kind rules ----------------------------------------------------
  switch (s.kind) {
    case StepKind::kIntraSub: {
      if (s.rows != s.reads.size())
        add(Rule::kStepShape, msg("rows = ", s.rows, " but step opens ",
                                  s.reads.size(), " wordlines"));
      const auto n = static_cast<unsigned>(s.reads.size());
      const auto& cell = nvm::cell_params(model_->tech());
      if (n > g.rows_per_subarray)
        add(Rule::kActivationOverflow,
            msg(n, " simultaneous activations exceed the subarray's ",
                g.rows_per_subarray, " LWL driver latches"));
      else if (n > max_rows_cap_)
        add(Rule::kActivationOverflow,
            msg(n, " simultaneous activations exceed the configured cap ",
                max_rows_cap_));
      else if (n > 0 && !csa_.supports(s.op, n, cell))
        add(Rule::kActivationOverflow,
            msg("the CSA cannot resolve ", to_string(s.op), " over ", n,
                " rows on ", nvm::to_string(model_->tech()),
                " (boundary ratio below the reliable threshold)"));
      // One wordline per operand: the same row cannot be activated twice
      // within one multi-row activation.
      for (std::size_t i = 0; i < s.reads.size(); ++i)
        for (std::size_t j = i + 1; j < s.reads.size(); ++j)
          if (s.reads[i] == s.reads[j]) {
            add(Rule::kDoubleActivate,
                msg("row ", addr_str(s.reads[i]), " activated twice"));
            j = s.reads.size();  // one diagnostic per duplicated row
          }
      for (const mem::RowAddr& r : s.reads)
        if (addr_in_range(g, r) &&
            (r.rank != s.at.rank || r.subarray != s.at.subarray))
          add(Rule::kClusterMismatch,
              msg("intra-subarray read ", addr_str(r),
                  " outside the executing cluster (rank ", s.at.rank,
                  ", subarray ", s.at.subarray, ")"));
      break;
    }
    case StepKind::kInterSub:
    case StepKind::kInterBank: {
      // Buffer steps fold at most two operands per pass; `rows` is the
      // pricing knob (sensed-row count) and may legitimately exceed the
      // dependency reads — e.g. a read-back write-verify senses the freshly
      // written row plus the golden copy but depends only on dst.
      if (s.rows < 1 || s.rows > 2)
        add(Rule::kStepShape,
            msg("rows = ", s.rows,
                " outside the buffer fold's 1..2 sensed-row range"));
      if (s.reads.size() > 2)
        add(Rule::kStepShape,
            msg(s.reads.size(),
                " operand rows exceed the buffer's two latch slots"));
      if (s.kind == StepKind::kInterSub)
        for (const mem::RowAddr& r : s.reads)
          if (addr_in_range(g, r) && r.rank != s.at.rank)
            add(Rule::kClusterMismatch,
                msg("inter-subarray read ", addr_str(r),
                    " outside the executing rank ", s.at.rank));
      break;
    }
    case StepKind::kHostRead: {
      // The host-read tail is one logical burst; its reads list one row per
      // group (the data dependencies), legitimately spanning ranks.
      if (s.rows != 1)
        add(Rule::kStepShape,
            msg("host-read bursts one latched result, rows = ", s.rows));
      if (s.writeback)
        add(Rule::kWriteBypassNoSense,
            "host-read steps stream to the CPU; they cannot write back");
      break;
    }
  }

  // The command automaton needs a step sane enough to lower (a bounded
  // column window and row lists); structural violations above already
  // explain anything it would find.
  if (rep.diags.size() == before) {
    cmds.clear();
    model_->lower_step(s, cmds);
    command_automaton(cmds, plan, step, rep);
  }
}

void Verifier::command_automaton(const std::vector<mem::Command>& cmds,
                                 std::size_t plan, std::size_t step,
                                 Report& rep) const {
  // Per-bank-cluster PIM state machine over lowered DDR commands.  Step
  // sequences are self-contained (each opens with a mode-set), so a single
  // linear automaton checks a stream of any length:
  //
  //   idle --MRS--> armed --PIM_RESET--> latching --ACT+--> (sensing after
  //   the first PIM_SENSE) --PIM_WRITEBACK--> idle            [intra path]
  //   armed --PIM_LOAD{1,2}--> loading --GDL/IO op--> oped
  //   --PIM_WRITEBACK--> idle                                 [buffer path]
  //
  // Plain column reads (host bursts) are legal anywhere and do not disturb
  // the cluster state; activates without a reset, senses without an open
  // row, bypasses without a sense, and logic ops without loads are illegal.
  enum class St { kIdle, kArmed, kLatching, kSensing, kLoading, kOped };
  const mem::Geometry& g = model_->geometry();
  St st = St::kIdle;
  unsigned acts = 0, loads = 0;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const mem::Command& c = cmds[i];
    // Almost every command passes: the "command i (KIND): " prefix is only
    // formatted once a rule fires.
    auto add = [&](const Rule r, std::string_view what) {
      std::string m = "command " + std::to_string(i) + " (" +
                      mem::to_string(c.kind) + "): ";
      m += what;
      rep.add(r, plan, step, std::move(m));
    };
    switch (c.kind) {
      case mem::CmdKind::kModeSet:
        st = St::kArmed;
        acts = loads = 0;
        break;
      case mem::CmdKind::kPimReset:
        if (st != St::kArmed)
          add(Rule::kBadCommandOrder,
              "wordline reset without a preceding mode-set");
        st = St::kLatching;
        acts = 0;
        break;
      case mem::CmdKind::kAct:
        if (st != St::kLatching)
          add(Rule::kBadCommandOrder,
              "activate outside a reset multi-ACT window");
        else if (++acts > g.rows_per_subarray)
          add(Rule::kActivationOverflow,
              "more ACTs than LWL driver latches (" +
                  std::to_string(g.rows_per_subarray) + ")");
        break;
      case mem::CmdKind::kPimSense:
        if (!(st == St::kSensing || (st == St::kLatching && acts >= 1)))
          add(Rule::kBadCommandOrder, "sense with no activated rows");
        st = St::kSensing;
        break;
      case mem::CmdKind::kPimWriteback:
        if (st != St::kSensing && st != St::kOped)
          add(Rule::kWriteBypassNoSense,
              "write-driver bypass without a sense or buffer op result");
        st = St::kIdle;
        break;
      case mem::CmdKind::kPimLoad:
        if (st != St::kArmed && st != St::kLoading)
          add(Rule::kBadCommandOrder,
              "buffer load without a preceding mode-set");
        else if (++loads > 2)
          add(Rule::kBadCommandOrder,
              "more loads than buffer operand slots (2)");
        st = St::kLoading;
        break;
      case mem::CmdKind::kPimGdlOp:
      case mem::CmdKind::kPimIoOp:
        if (st != St::kLoading || loads < 1)
          add(Rule::kBadCommandOrder,
              "buffer logic op with no loaded operands");
        st = St::kOped;
        break;
      case mem::CmdKind::kRead:
        break;  // host column bursts are plain DDR, legal anywhere
      case mem::CmdKind::kWrite:
      case mem::CmdKind::kPrecharge:
        add(Rule::kBadCommandOrder, "not part of a lowered PIM sequence");
        break;
    }
  }
}

Report Verifier::check_commands(const std::vector<mem::Command>& cmds) const {
  Report rep;
  command_automaton(cmds, Diagnostic::kNoIndex, Diagnostic::kNoIndex, rep);
  return rep;
}

Report Verifier::check(const std::vector<OpPlan>& plans,
                       const core::ExecutionEngine::Result& result,
                       bool serial) const {
  Report rep = check(plans);
  if (!rep.ok()) return rep;
  std::vector<StepPrice> priced;
  hazard_resource_pass(plans, result, priced, rep);
  reconcile_pass(plans, result, priced, serial, rep);
  return rep;
}

void Verifier::hazard_resource_pass(
    const std::vector<OpPlan>& plans,
    const core::ExecutionEngine::Result& result,
    std::vector<StepPrice>& priced, Report& rep) const {
  using Sched = core::ExecutionEngine::ScheduledStep;
  auto msg = [](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };

  // ---- H01: the schedule covers each step exactly once -------------------
  std::vector<std::size_t> offset(plans.size() + 1, 0);
  for (std::size_t p = 0; p < plans.size(); ++p)
    offset[p + 1] = offset[p] + plans[p].steps.size();
  const std::size_t total = offset.back();
  std::vector<std::size_t> placed(total, kUnplaced);
  bool structural_ok = result.schedule.size() == total;
  if (!structural_ok)
    rep.add(Rule::kScheduleShape, Diagnostic::kNoIndex, Diagnostic::kNoIndex,
            msg("schedule has ", result.schedule.size(), " entries for ",
                total, " plan steps"));
  for (std::size_t j = 0; j < result.schedule.size(); ++j) {
    const Sched& ss = result.schedule[j];
    if (ss.plan >= plans.size() || ss.step >= plans[ss.plan].steps.size()) {
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              "schedule entry out of range");
      structural_ok = false;
      continue;
    }
    const std::size_t idx = offset[ss.plan] + ss.step;
    if (placed[idx] != kUnplaced) {
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              "step scheduled more than once");
      structural_ok = false;
      continue;
    }
    placed[idx] = j;
  }
  if (!structural_ok) return;  // per-node times are not well-defined
  auto at = [&](std::size_t idx) -> const Sched& {
    return result.schedule[placed[idx]];
  };

  // Price every step once, from the model, in schedule order: the H01 time
  // checks below and the reconciliation sums all reuse these.
  priced.resize(total);
  for (std::size_t j = 0; j < total; ++j) {
    const Sched& ss = result.schedule[j];
    const mem::Cost c = model_->step_cost(plans[ss.plan].steps[ss.step]);
    priced[j] = {c.time_ns, c.energy.total_pj()};
  }

  for (std::size_t idx = 0; idx < total; ++idx) {
    const Sched& ss = at(idx);
    const double cost_ns = priced[placed[idx]].time_ns;
    const PlanStep& s = plans[ss.plan].steps[ss.step];
    if (ss.start_ns < -slack(0.0) || ss.done_ns < ss.start_ns - slack(0.0))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("negative or inverted window [", ss.start_ns, ", ",
                  ss.done_ns, "]"));
    if (!near(ss.done_ns - ss.start_ns, cost_ns))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("scheduled duration ", ss.done_ns - ss.start_ns,
                  " ns != step cost ", cost_ns, " ns"));
    const std::uint64_t bytes = model_->step_bus_bytes(s);
    const double burst =
        bytes == 0 ? 0.0
                   : std::min(static_cast<double>(bytes) /
                                  model_->bus().data_gbps,
                              cost_ns);
    if (!near(ss.bus_ns, burst))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("bus burst ", ss.bus_ns, " ns != ", burst,
                  " ns implied by ", bytes, " bus bytes"));
  }

  // ---- H02: the hazard graph, re-derived exactly like the engine ---------
  // Program-order scan over bank-collapsed row keys, the engine's own
  // edge rule.
  std::unordered_map<std::uint64_t, std::size_t> last_writer;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> readers;
  for (std::size_t p = 0; p < plans.size(); ++p)
    for (std::size_t i = 0; i < plans[p].steps.size(); ++i) {
      const std::size_t idx = offset[p] + i;
      const PlanStep& s = plans[p].steps[i];
      auto needs = [&](std::size_t d, const char* hazard,
                       const mem::RowAddr& row) {
        if (d == idx) return;
        if (at(idx).start_ns < at(d).done_ns - slack(at(d).done_ns))
          rep.add(Rule::kHazardViolated, p, i,
                  msg(hazard, " hazard on ", addr_str(row), ": starts at ",
                      at(idx).start_ns, " ns before plan ", at(d).plan,
                      " step ", at(d).step, " completes at ", at(d).done_ns,
                      " ns"));
      };
      for (const mem::RowAddr& r : s.reads) {
        const auto it = last_writer.find(row_key(r));
        if (it != last_writer.end()) needs(it->second, "RAW", r);
      }
      if (s.writeback) {
        const std::uint64_t w = row_key(s.at);
        const auto it = last_writer.find(w);
        if (it != last_writer.end()) needs(it->second, "WAW", s.at);
        const auto rd = readers.find(w);
        if (rd != readers.end())
          for (const std::size_t r : rd->second) needs(r, "WAR", s.at);
      }
      for (const mem::RowAddr& r : s.reads)
        readers[row_key(r)].push_back(idx);
      if (s.writeback) {
        const std::uint64_t w = row_key(s.at);
        last_writer[w] = idx;
        readers[w].clear();
      }
    }

  // ---- H03 / H04: physical exclusivity -----------------------------------
  // A step occupies its lock-step bank cluster for [start, done] (the bank
  // is held until any trailing burst drains), and its burst occupies the
  // channel's shared data bus for [done - bus_ns, done].  Windows on one
  // resource must never overlap.
  struct Window {
    double start, end;
    std::size_t idx;
  };
  std::unordered_map<std::uint64_t, std::vector<Window>> rank_busy, bus_busy;
  for (std::size_t idx = 0; idx < total; ++idx) {
    const Sched& ss = at(idx);
    const PlanStep& s = plans[ss.plan].steps[ss.step];
    const std::uint64_t rk =
        (static_cast<std::uint64_t>(s.at.channel) << 32) | s.at.rank;
    rank_busy[rk].push_back({ss.start_ns, ss.done_ns, idx});
    if (ss.bus_ns > 0.0)
      bus_busy[s.at.channel].push_back(
          {ss.done_ns - ss.bus_ns, ss.done_ns, idx});
  }
  auto check_overlap = [&](std::unordered_map<std::uint64_t,
                                              std::vector<Window>>& byres,
                           Rule rule, const char* what) {
    for (auto& [res, wins] : byres) {
      std::sort(wins.begin(), wins.end(), [](const Window& a,
                                             const Window& b) {
        return a.start < b.start;
      });
      for (std::size_t i = 1; i < wins.size(); ++i) {
        const Window& prev = wins[i - 1];
        const Window& cur = wins[i];
        if (cur.start < prev.end - slack(prev.end)) {
          const Sched& ss = at(cur.idx);
          const Sched& ps = at(prev.idx);
          rep.add(rule, ss.plan, ss.step,
                  msg(what, " window [", cur.start, ", ", cur.end,
                      ") overlaps plan ", ps.plan, " step ", ps.step, " [",
                      prev.start, ", ", prev.end, ")"));
        }
      }
    }
  };
  check_overlap(rank_busy, Rule::kRankOverlap, "bank-cluster");
  check_overlap(bus_busy, Rule::kBusOverlap, "data-bus");
}

void Verifier::reconcile_pass(const std::vector<OpPlan>& plans,
                              const core::ExecutionEngine::Result& result,
                              const std::vector<StepPrice>& priced,
                              bool serial, Report& rep) const {
  if (rep.tripped(Rule::kScheduleShape)) return;  // sums are meaningless
  auto msg = [](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };
  const auto none = Diagnostic::kNoIndex;

  double time_by_class[core::kStepKindCount] = {};
  std::uint64_t steps_by_class[core::kStepKindCount] = {};
  double energy_pj = 0.0, serial_sum = 0.0, max_done = 0.0;
  std::uint64_t bus_bytes = 0;
  for (std::size_t j = 0; j < result.schedule.size(); ++j) {
    const auto& ss = result.schedule[j];
    const PlanStep& s = plans[ss.plan].steps[ss.step];
    const std::size_t k = core::step_index(s.kind);
    time_by_class[k] += ss.done_ns - ss.start_ns;
    ++steps_by_class[k];
    serial_sum += ss.done_ns - ss.start_ns;
    max_done = std::max(max_done, ss.done_ns);
    energy_pj += priced[j].energy_pj;
    bus_bytes += model_->step_bus_bytes(s);
  }

  for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
    const auto kind = static_cast<StepKind>(k);
    if (!near(time_by_class[k], result.profile.time_ns[k]))
      rep.add(Rule::kClassTimeMismatch, none, none,
              msg(to_string(kind), ": scheduled ", time_by_class[k],
                  " ns, profile claims ", result.profile.time_ns[k], " ns"));
    if (steps_by_class[k] != result.profile.steps[k])
      rep.add(Rule::kClassCountMismatch, none, none,
              msg(to_string(kind), ": ", steps_by_class[k],
                  " scheduled steps, profile claims ",
                  result.profile.steps[k]));
  }
  if (bus_bytes != result.profile.bus_bytes)
    rep.add(Rule::kClassCountMismatch, none, none,
            msg("steps move ", bus_bytes, " bus bytes, profile claims ",
                result.profile.bus_bytes));
  if (!near(energy_pj, result.cost.energy.total_pj()))
    rep.add(Rule::kEnergyMismatch, none, none,
            msg("summed step energy ", energy_pj, " pJ != batch energy ",
                result.cost.energy.total_pj(), " pJ"));
  if (!near(max_done, result.cost.time_ns))
    rep.add(Rule::kMakespanMismatch, none, none,
            msg("last step completes at ", max_done,
                " ns, batch makespan claims ", result.cost.time_ns, " ns"));
  if (!near(serial_sum, result.serial_time_ns))
    rep.add(Rule::kSerialSumMismatch, none, none,
            msg("step times sum to ", serial_sum,
                " ns, serial baseline claims ", result.serial_time_ns,
                " ns"));
  if (serial && !near(result.cost.time_ns, result.serial_time_ns))
    rep.add(Rule::kSerialSumMismatch, none, none,
            msg("serial-mode makespan ", result.cost.time_ns,
                " ns != serial baseline ", result.serial_time_ns, " ns"));
}

Report reconcile_trace(const obs::TraceSession& trace,
                       const Accounting& expect) {
  Report rep;
  const auto none = Diagnostic::kNoIndex;
  auto msg = [](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };

  double time_by_class[core::kStepKindCount] = {};
  std::uint64_t count_by_class[core::kStepKindCount] = {};
  for (const obs::Span& span : trace.spans())
    for (std::size_t k = 0; k < core::kStepKindCount; ++k)
      if (span.category == to_string(static_cast<StepKind>(k))) {
        time_by_class[k] += span.dur_ns;
        ++count_by_class[k];
      }
  // Bus bursts ("bus") and host-fallback spans ("cpu-fallback") carry
  // non-class categories: they render extra timelines, not step time.

  for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
    const auto kind = static_cast<StepKind>(k);
    if (!near(time_by_class[k], expect.class_time_ns[k]))
      rep.add(Rule::kClassTimeMismatch, none, none,
              msg(to_string(kind), ": spans sum to ", time_by_class[k],
                  " ns, accounting claims ", expect.class_time_ns[k],
                  " ns"));
    if (count_by_class[k] != expect.class_steps[k])
      rep.add(Rule::kClassCountMismatch, none, none,
              msg(to_string(kind), ": ", count_by_class[k],
                  " spans, accounting claims ", expect.class_steps[k]));
  }
  if (!near(trace.max_end_ns(), expect.makespan_ns))
    rep.add(Rule::kMakespanMismatch, none, none,
            msg("last span ends at ", trace.max_end_ns(),
                " ns, accounting claims the makespan is ",
                expect.makespan_ns, " ns"));
  return rep;
}

}  // namespace pinatubo::verify
