// Adversarial verifier tests: every hand-built illegal plan / tampered
// schedule must trip the *exact* rule it violates — the rule ids are the
// contract CI greps for, so they are asserted here, not just "some error".
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mem/commands.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::verify {
namespace {

using core::ExecutionEngine;
using core::OpPlan;
using core::PlanStep;
using core::StepKind;

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : model_(geo_, nvm::Tech::kPcm, 0.5),
        alloc_(geo_, core::AllocPolicy::kPimAware),
        sched_(geo_, core::SchedulerConfig{128, nvm::Tech::kPcm}),
        verifier_(model_, 128) {}

  /// A legal n-operand plan over virtually placed vectors.
  OpPlan plan_of(BitOp op, unsigned operands, bool host_read = false,
                 std::uint64_t first_id = 0) {
    std::vector<core::Placement> srcs;
    const std::uint64_t bits = geo_.row_group_bits();
    for (unsigned i = 0; i < operands; ++i)
      srcs.push_back(alloc_.virtual_placement(first_id + i, bits));
    const core::Placement dst =
        alloc_.virtual_placement(first_id + operands, bits);
    return sched_.plan(op, srcs, dst, host_read);
  }

  /// The one rule (or rule set) a mutation should trip.
  void expect_only(const Report& rep, Rule rule) {
    EXPECT_TRUE(rep.tripped(rule))
        << "expected " << rule_id(rule) << ":\n" << rep.to_string();
    for (const Diagnostic& d : rep.diags)
      EXPECT_EQ(d.rule, rule) << d.to_string();
  }

  mem::Geometry geo_;
  core::PinatuboCostModel model_;
  core::RowAllocator alloc_;
  core::OpScheduler sched_;
  Verifier verifier_;
};

// ---- protocol pass ---------------------------------------------------------

TEST_F(VerifierTest, LegalPlansPass) {
  for (const BitOp op : {BitOp::kOr, BitOp::kAnd, BitOp::kXor, BitOp::kInv}) {
    const unsigned n = op == BitOp::kInv ? 1 : (op == BitOp::kOr ? 8 : 2);
    const OpPlan plan = plan_of(op, n, /*host_read=*/true);
    const Report rep = verifier_.check(plan);
    EXPECT_TRUE(rep.ok()) << to_string(op) << ":\n" << rep.to_string();
  }
}

TEST_F(VerifierTest, EmptyReadsTripP01) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].reads.clear();
  plan.steps[0].read_cols.clear();
  plan.steps[0].rows = 0;
  const Report rep = verifier_.check(plan);
  EXPECT_TRUE(rep.tripped(Rule::kStepEmptyReads)) << rep.to_string();
}

TEST_F(VerifierTest, DoubleActivateTripsP07) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  ASSERT_GE(plan.steps[0].reads.size(), 2u);
  plan.steps[0].reads[1] = plan.steps[0].reads[0];
  expect_only(verifier_.check(plan), Rule::kDoubleActivate);
}

TEST_F(VerifierTest, WriteBypassWithoutSenseTripsP08) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].col_steps = 0;  // writeback stays set: bypass with no sense
  const Report rep = verifier_.check(plan);
  EXPECT_TRUE(rep.tripped(Rule::kWriteBypassNoSense)) << rep.to_string();
}

TEST_F(VerifierTest, HostReadWritebackTripsP08) {
  OpPlan plan = plan_of(BitOp::kOr, 4, /*host_read=*/true);
  auto& tail = plan.steps.back();
  ASSERT_EQ(tail.kind, StepKind::kHostRead);
  tail.writeback = true;
  tail.write = tail.reads[0];
  const Report rep = verifier_.check(plan);
  EXPECT_TRUE(rep.tripped(Rule::kWriteBypassNoSense)) << rep.to_string();
}

TEST_F(VerifierTest, TooManyRowsTripsP03) {
  // AND is a 2-row op: the CSA's reference cannot separate 3-row sums.
  OpPlan or_plan = plan_of(BitOp::kOr, 3);
  OpPlan plan = plan_of(BitOp::kAnd, 2);
  PlanStep& s = plan.steps[0];
  PlanStep& wide = or_plan.steps[0];
  ASSERT_EQ(wide.reads.size(), 3u);
  s.reads = wide.reads;
  s.read_cols = wide.read_cols;
  s.rows = wide.rows;
  expect_only(verifier_.check(plan), Rule::kActivationOverflow);
}

TEST_F(VerifierTest, RowCapOverflowTripsP03) {
  const Verifier two_row(model_, 2);  // Pinatubo-2 configuration
  const OpPlan plan = plan_of(BitOp::kOr, 4);
  ASSERT_GT(plan.steps[0].reads.size(), 2u);
  expect_only(two_row.check(plan), Rule::kActivationOverflow);
}

TEST_F(VerifierTest, OutOfRangeRowTripsP04) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].reads[0].row = geo_.rows_per_subarray;
  const Report rep = verifier_.check(plan);
  EXPECT_TRUE(rep.tripped(Rule::kAddrOutOfRange)) << rep.to_string();
}

TEST_F(VerifierTest, CrossChannelReadTripsP05) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].reads[0].channel = plan.steps[0].channel + 1;
  const Report rep = verifier_.check(plan);
  // The forged channel is also outside the 1-channel default geometry.
  EXPECT_TRUE(rep.tripped(Rule::kCrossChannel) ||
              rep.tripped(Rule::kAddrOutOfRange))
      << rep.to_string();
}

TEST_F(VerifierTest, BankedReadTripsP06) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].reads[0].bank = 1;  // PIM reads broadcast the cluster
  expect_only(verifier_.check(plan), Rule::kClusterMismatch);
}

TEST_F(VerifierTest, ForeignSubarrayReadTripsP06) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].reads[0].subarray =
      (plan.steps[0].subarray + 1) % geo_.subarrays_per_bank;
  expect_only(verifier_.check(plan), Rule::kClusterMismatch);
}

TEST_F(VerifierTest, ColumnOverflowTripsP09) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  plan.steps[0].col_start = geo_.sa_mux_share;  // window starts past the mux
  expect_only(verifier_.check(plan), Rule::kColumnOverflow);
}

TEST_F(VerifierTest, ReadColsMismatchTripsP10) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  ASSERT_FALSE(plan.steps[0].read_cols.empty());
  plan.steps[0].read_cols.pop_back();
  expect_only(verifier_.check(plan), Rule::kReadColsMismatch);
}

TEST_F(VerifierTest, ForeignWriteTargetTripsP11) {
  OpPlan plan = plan_of(BitOp::kOr, 4);
  ASSERT_TRUE(plan.steps[0].writeback);
  plan.steps[0].write.row =
      (plan.steps[0].write.row + 1) % geo_.rows_per_subarray;
  expect_only(verifier_.check(plan), Rule::kWriteKeyMismatch);
}

// ---- command automaton (P12) -----------------------------------------------

TEST_F(VerifierTest, LoweredStreamsPassTheAutomaton) {
  std::vector<mem::Command> cmds;
  for (const BitOp op : {BitOp::kOr, BitOp::kInv})
    for (const PlanStep& s : plan_of(op, op == BitOp::kInv ? 1 : 6,
                                     /*host_read=*/true)
             .steps)
      model_.lower_step(s, cmds);
  const Report rep = verifier_.check_commands(cmds);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST_F(VerifierTest, ActWithoutResetTripsP12) {
  std::vector<mem::Command> cmds;
  model_.lower_step(plan_of(BitOp::kOr, 4).steps[0], cmds);
  // Drop the PIM_RESET: the multi-ACT window was never armed.
  std::vector<mem::Command> broken;
  for (const mem::Command& c : cmds)
    if (c.kind != mem::CmdKind::kPimReset) broken.push_back(c);
  ASSERT_LT(broken.size(), cmds.size());
  expect_only(verifier_.check_commands(broken), Rule::kBadCommandOrder);
}

TEST_F(VerifierTest, P12DiagnosticTextIsStable) {
  // The automaton formats its "command i (KIND): " prefix only when a rule
  // fires; the text users and CI grep for must not depend on that.
  std::vector<mem::Command> cmds;
  model_.lower_step(plan_of(BitOp::kOr, 4).steps[0], cmds);
  std::vector<mem::Command> broken;
  for (const mem::Command& c : cmds)
    if (c.kind != mem::CmdKind::kPimReset) broken.push_back(c);
  const Report rep = verifier_.check_commands(broken);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.diags.front().message,
            "command 1 (ACT): activate outside a reset multi-ACT window");
}

TEST_F(VerifierTest, SenseWithoutActTripsP12) {
  std::vector<mem::Command> cmds;
  model_.lower_step(plan_of(BitOp::kOr, 4).steps[0], cmds);
  std::vector<mem::Command> broken;
  for (const mem::Command& c : cmds)
    if (c.kind != mem::CmdKind::kAct) broken.push_back(c);
  expect_only(verifier_.check_commands(broken), Rule::kBadCommandOrder);
}

TEST_F(VerifierTest, BypassWithoutSenseTripsP08InTheStream) {
  std::vector<mem::Command> cmds;
  model_.lower_step(plan_of(BitOp::kOr, 4).steps[0], cmds);
  std::vector<mem::Command> broken;
  for (const mem::Command& c : cmds)
    if (c.kind != mem::CmdKind::kPimSense) broken.push_back(c);
  expect_only(verifier_.check_commands(broken), Rule::kWriteBypassNoSense);
}

// ---- hazard & resource pass ------------------------------------------------

/// A batch with real dependencies: b = a|x, c = b&y (RAW on b), plus an
/// independent op to give the scheduler overlap opportunities.
class ScheduleTest : public VerifierTest {
 protected:
  ScheduleTest() {
    const std::uint64_t bits = geo_.row_group_bits();
    auto place = [&](std::uint64_t id) {
      return alloc_.virtual_placement(id, bits);
    };
    plans_.push_back(sched_.plan(BitOp::kOr, {place(0), place(1)}, place(2),
                                 false));
    plans_.push_back(sched_.plan(BitOp::kAnd, {place(2), place(3)}, place(4),
                                 false));
    plans_.push_back(sched_.plan(BitOp::kOr, {place(5), place(6)}, place(7),
                                 /*host_read=*/true));
    const ExecutionEngine engine(model_);
    result_ = engine.run(plans_);
  }

  std::vector<OpPlan> plans_;
  ExecutionEngine::Result result_;
};

TEST_F(ScheduleTest, LegalSchedulePassesAllPasses) {
  const Report rep = verifier_.check(plans_, result_);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST_F(ScheduleTest, HazardInvertedScheduleTripsH02) {
  // Pull the dependent AND (plan 1 reads plan 0's destination) to time 0,
  // before its producer completes.
  ExecutionEngine::Result r = result_;
  for (auto& ss : r.schedule) {
    if (ss.plan != 1) continue;
    const double dur = ss.done_ns - ss.start_ns;
    ss.start_ns = 0.0;
    ss.done_ns = dur;
    break;
  }
  const Report rep = verifier_.check(plans_, r);
  EXPECT_TRUE(rep.tripped(Rule::kHazardViolated)) << rep.to_string();
}

TEST_F(ScheduleTest, OverlappingRankWindowsTripH03) {
  // Slide the second step scheduled on some (channel,rank) into the first.
  ExecutionEngine::Result r = result_;
  std::map<std::pair<unsigned, unsigned>, std::size_t> first_on;
  bool mutated = false;
  for (std::size_t i = 0; i < r.schedule.size() && !mutated; ++i) {
    auto& ss = r.schedule[i];
    const auto& s = plans_[ss.plan].steps[ss.step];
    const auto key = std::make_pair(s.channel, s.rank);
    const auto it = first_on.find(key);
    if (it == first_on.end()) {
      first_on.emplace(key, i);
      continue;
    }
    const auto& prev = r.schedule[it->second];
    const double dur = ss.done_ns - ss.start_ns;
    ss.start_ns = (prev.start_ns + prev.done_ns) / 2.0;  // mid-overlap
    ss.done_ns = ss.start_ns + dur;
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  const Report rep = verifier_.check(plans_, r);
  EXPECT_TRUE(rep.tripped(Rule::kRankOverlap)) << rep.to_string();
}

TEST_F(ScheduleTest, OverlappingBusBurstsTripH04) {
  // Two host-read batches: their bursts share the channel's data bus.
  const std::uint64_t bits = geo_.row_group_bits();
  auto place = [&](std::uint64_t id) {
    return alloc_.virtual_placement(id, bits);
  };
  std::vector<OpPlan> plans;
  plans.push_back(
      sched_.plan(BitOp::kOr, {place(0), place(1)}, place(2), true));
  plans.push_back(
      sched_.plan(BitOp::kOr, {place(3), place(4)}, place(5), true));
  const ExecutionEngine engine(model_);
  ExecutionEngine::Result r = engine.run(plans);
  std::vector<std::size_t> bursts;
  for (std::size_t i = 0; i < r.schedule.size(); ++i)
    if (r.schedule[i].bus_ns > 0.0) bursts.push_back(i);
  ASSERT_GE(bursts.size(), 2u);
  // Align the second burst's window onto the first's.
  auto& a = r.schedule[bursts[0]];
  auto& b = r.schedule[bursts[1]];
  const double dur = b.done_ns - b.start_ns;
  b.done_ns = a.done_ns;
  b.start_ns = b.done_ns - dur;
  const Report rep = verifier_.check(plans, r);
  EXPECT_TRUE(rep.tripped(Rule::kBusOverlap)) << rep.to_string();
}

TEST_F(ScheduleTest, TamperedDurationTripsH01) {
  ExecutionEngine::Result r = result_;
  r.schedule[0].done_ns += 5.0;
  const Report rep = verifier_.check(plans_, r);
  EXPECT_TRUE(rep.tripped(Rule::kScheduleShape)) << rep.to_string();
}

TEST_F(ScheduleTest, MissingStepTripsH01) {
  ExecutionEngine::Result r = result_;
  r.schedule.pop_back();
  const Report rep = verifier_.check(plans_, r);
  EXPECT_TRUE(rep.tripped(Rule::kScheduleShape)) << rep.to_string();
}

// ---- reconciliation pass ---------------------------------------------------

TEST_F(ScheduleTest, TamperedClassTimeTripsR01) {
  ExecutionEngine::Result r = result_;
  r.profile.time_ns[0] += 3.0;
  expect_only(verifier_.check(plans_, r), Rule::kClassTimeMismatch);
}

TEST_F(ScheduleTest, TamperedClassCountTripsR02) {
  ExecutionEngine::Result r = result_;
  ++r.profile.steps[0];
  expect_only(verifier_.check(plans_, r), Rule::kClassCountMismatch);
}

TEST_F(ScheduleTest, TamperedEnergyTripsR03) {
  ExecutionEngine::Result r = result_;
  r.cost.energy.add(mem::Energy::kPimSense, 10.0);
  expect_only(verifier_.check(plans_, r), Rule::kEnergyMismatch);
}

TEST_F(ScheduleTest, TamperedMakespanTripsR04) {
  ExecutionEngine::Result r = result_;
  r.cost.time_ns += 10.0;
  expect_only(verifier_.check(plans_, r), Rule::kMakespanMismatch);
}

TEST_F(ScheduleTest, TamperedSerialBaselineTripsR05) {
  ExecutionEngine::Result r = result_;
  r.serial_time_ns -= 1.0;
  expect_only(verifier_.check(plans_, r), Rule::kSerialSumMismatch);
}

// ---- rule catalog ----------------------------------------------------------

TEST(RuleCatalog, EveryRuleHasStableIdNameInvariant) {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    ASSERT_NE(rule_id(r), nullptr);
    EXPECT_EQ(std::string(rule_id(r)).size(), 3u) << rule_id(r);
    EXPECT_FALSE(std::string(rule_name(r)).empty());
    EXPECT_FALSE(std::string(rule_invariant(r)).empty());
  }
  // Ids are unique.
  for (std::size_t i = 0; i < kRuleCount; ++i)
    for (std::size_t j = i + 1; j < kRuleCount; ++j)
      EXPECT_STRNE(rule_id(static_cast<Rule>(i)),
                   rule_id(static_cast<Rule>(j)));
}

TEST(RuleCatalog, DiagnosticFormatIsGreppable) {
  Report rep;
  rep.add(Rule::kDoubleActivate, 2, 0, "row X activated twice");
  EXPECT_EQ(rep.diags[0].to_string(),
            "P07 double-activate [plan 2 step 0]: row X activated twice");
  EXPECT_TRUE(rep.tripped(Rule::kDoubleActivate));
  EXPECT_EQ(rep.count(Rule::kDoubleActivate), 1u);
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace pinatubo::verify
