#include "pinatubo/cost_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/scheduler.hpp"

namespace pinatubo::core {
namespace {

using mem::Energy;

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{128, nvm::Tech::kPcm}),
        model_(geo_, nvm::Tech::kPcm) {}

  OpPlan plan_or(unsigned n, std::uint64_t bits) {
    // In-place destination (dst == last src) so even n == 128 full-group
    // operands stay within one subarray's 128 rows.
    std::vector<Placement> srcs;
    for (unsigned i = 0; i < n; ++i) srcs.push_back(alloc_.allocate(bits));
    return sched_.plan(BitOp::kOr, srcs, srcs.back(), false);
  }

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel model_;
};

TEST_F(CostModelTest, IntraStepTimeFormula) {
  // 2-row OR, one column stripe, with writeback:
  // cmds*(1.25) + tRCD + tWR.
  const auto plan = plan_or(2, 1ull << 14);
  ASSERT_EQ(plan.steps.size(), 1u);
  const auto& s = plan.steps[0];
  const auto cmds = model_.command_count(s);
  EXPECT_EQ(cmds, 1u + 1 + 2 + 1 + 1);  // MRS RESET ACTx2 SENSE WB
  const double expect = cmds * 1.25 + 18.3 + 151.1;
  EXPECT_NEAR(model_.step_cost(s).time_ns, expect, 1e-9);
}

TEST_F(CostModelTest, FullRow128OrMatchesPaperBallpark) {
  // 128-row OR over a full 2^19 group: the paper's peak op.
  const auto plan = plan_or(128, 1ull << 19);
  ASSERT_EQ(plan.steps.size(), 1u);
  const auto cost = model_.plan_cost(plan);
  // ~(163 cmds)*1.25 + 18.3 + 31*8.9 + 151.1 ~= 650 ns.
  EXPECT_GT(cost.time_ns, 500.0);
  EXPECT_LT(cost.time_ns, 900.0);
  // Equivalent bandwidth: 128 * 64 KiB in that time >= 10 TB/s — the
  // "beyond internal bandwidth" region.
  const double gbps = 128.0 * 65536.0 / cost.time_ns;
  EXPECT_GT(gbps, 1e4);
}

TEST_F(CostModelTest, ColumnStepsAddSensingTime) {
  const auto p1 = plan_or(2, 1ull << 14);   // 1 stripe
  const auto p32 = plan_or(2, 1ull << 19);  // 32 stripes
  const double t1 = model_.plan_cost(p1).time_ns;
  const double t32 = model_.plan_cost(p32).time_ns;
  // 31 extra sensing steps at tCL plus 31 extra sense commands.
  EXPECT_NEAR(t32 - t1, 31 * 8.9 + 31 * 1.25, 1e-6);
}

TEST_F(CostModelTest, EnergyComponentsPresent) {
  const auto plan = plan_or(2, 1ull << 14);
  const auto cost = model_.plan_cost(plan);
  EXPECT_GT(cost.energy.get(Energy::kPimActivate), 0);
  EXPECT_GT(cost.energy.get(Energy::kPimSense), 0);
  EXPECT_GT(cost.energy.get(Energy::kPimWrite), 0);
  EXPECT_GT(cost.energy.get(Energy::kCtrlCmd), 0);
  EXPECT_EQ(cost.energy.get(Energy::kBusIo), 0);  // nothing crossed the bus
}

TEST_F(CostModelTest, WriteDominatesIntraEnergy) {
  // NVM asymmetry: the result write dwarfs analog sensing.
  const auto plan = plan_or(2, 1ull << 19);
  const auto cost = model_.plan_cost(plan);
  EXPECT_GT(cost.energy.get(Energy::kPimWrite),
            5 * cost.energy.get(Energy::kPimSense));
}

TEST_F(CostModelTest, MultiRowAmortizesWrites) {
  // 128 x 2-row ops write 127 intermediates; one 128-row op writes once.
  OpScheduler two(geo_, SchedulerConfig{2, nvm::Tech::kPcm});
  std::vector<Placement> ps;
  for (unsigned i = 0; i < 128; ++i)
    ps.push_back(alloc_.allocate(1ull << 19));
  // In-place destination keeps everything in one subarray.
  std::vector<Placement> srcs(ps.begin(), ps.end());
  const auto chain = two.plan(BitOp::kOr, srcs, ps[127], false);
  const auto chain_cost = model_.plan_cost(chain);
  const auto single = sched_.plan(BitOp::kOr, srcs, ps[127], false);
  const auto single_cost = model_.plan_cost(single);
  EXPECT_EQ(single.steps.size(), 1u);
  EXPECT_EQ(chain.steps.size(), 127u);
  EXPECT_GT(chain_cost.time_ns, 20 * single_cost.time_ns);
  EXPECT_GT(chain_cost.energy.total_pj(), 20 * single_cost.energy.total_pj());
}

TEST_F(CostModelTest, InterSubCostsMoreThanIntra) {
  std::vector<Placement> ps;
  for (int i = 0; i < 4097; ++i) ps.push_back(alloc_.allocate(1ull << 14));
  const auto intra = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  const auto inter =
      sched_.plan(BitOp::kOr, {ps[0], ps[4096]}, ps[1], false);
  EXPECT_EQ(inter.steps[0].kind, StepKind::kInterSub);
  EXPECT_GT(model_.plan_cost(inter).time_ns,
            model_.plan_cost(intra).time_ns);
  EXPECT_GT(model_.plan_cost(inter).energy.total_pj(),
            model_.plan_cost(intra).energy.total_pj());
}

TEST_F(CostModelTest, CrossRankAddsBusTimeAndEnergy) {
  RowAllocator valloc(geo_, AllocPolicy::kPimAware);
  const auto a = valloc.virtual_placement(0, 1ull << 14);
  const auto b = valloc.virtual_placement(64ull * 4096, 1ull << 14);
  const auto near = valloc.virtual_placement(1, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kOr, {a, b}, near, false);
  ASSERT_EQ(plan.steps[0].kind, StepKind::kInterBank);
  const auto cost = model_.plan_cost(plan);
  EXPECT_GT(cost.energy.get(Energy::kBusIo), 0);
}

TEST_F(CostModelTest, HostReadPaysBusBandwidth) {
  std::vector<Placement> ps;
  for (int i = 0; i < 3; ++i) ps.push_back(alloc_.allocate(1ull << 19));
  const auto without = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  const auto with = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], true);
  const double dt = model_.plan_cost(with).time_ns -
                    model_.plan_cost(without).time_ns;
  // 64 KiB at 12.8 GB/s = 5120 ns (plus read commands).
  EXPECT_GT(dt, 5000.0);
  EXPECT_GT(model_.plan_cost(with).energy.get(Energy::kBusIo), 0);
}

TEST_F(CostModelTest, LoweringMatchesCommandCount) {
  const auto plan = plan_or(4, 1ull << 14);
  const auto cmds = model_.lower(plan);
  std::uint64_t expect = 0;
  for (const auto& s : plan.steps) expect += model_.command_count(s);
  EXPECT_EQ(cmds.size(), expect);
}

TEST_F(CostModelTest, LoweredStreamShape) {
  const auto plan = plan_or(4, 1ull << 14);
  const auto cmds = model_.lower(plan);
  // MRS, RESET, 4 ACT, 1 SENSE, WB.
  ASSERT_EQ(cmds.size(), 8u);
  EXPECT_EQ(cmds[0].kind, mem::CmdKind::kModeSet);
  EXPECT_EQ(cmds[1].kind, mem::CmdKind::kPimReset);
  EXPECT_EQ(cmds[2].kind, mem::CmdKind::kAct);
  EXPECT_EQ(cmds[5].kind, mem::CmdKind::kAct);
  EXPECT_EQ(cmds[6].kind, mem::CmdKind::kPimSense);
  EXPECT_EQ(cmds[7].kind, mem::CmdKind::kPimWriteback);
}

TEST_F(CostModelTest, GoldenStepTotalsPerKind) {
  // One step of each kind, pinned as exact doubles: any change to a
  // component or to the order total_pj() sums them in moves these.
  struct Golden {
    StepKind kind;
    unsigned rows, col_steps;
    bool writeback, crosses_rank;
    double time_ns, total_pj;
  };
  const Golden golden[] = {
      {StepKind::kIntraSub, 4, 3, true, false, 0x1.8f66666666666p+7,
       0x1.8e1ce098915bdp+19},
      {StepKind::kInterSub, 2, 2, true, false, 0x1.bfe6666666666p+7,
       0x1.7e300032db1eap+19},
      {StepKind::kInterBank, 2, 2, true, true, 0x1.0ff999999999ap+9,
       0x1.4f1800196d8f5p+20},
      {StepKind::kHostRead, 1, 1, false, false, 0x1.54p+7, 0x1.200ap+18},
  };
  for (const Golden& g : golden) {
    PlanStep s;
    s.kind = g.kind;
    s.rows = g.rows;
    s.col_steps = g.col_steps;
    s.bits = g.col_steps * geo_.sense_step_bits();
    s.writeback = g.writeback;
    s.crosses_rank = g.crosses_rank;
    const auto cost = model_.step_cost(s);
    EXPECT_EQ(cost.time_ns, g.time_ns) << to_string(g.kind);
    EXPECT_EQ(cost.energy.total_pj(), g.total_pj) << to_string(g.kind);
  }
}

TEST_F(CostModelTest, DensityDrivesWriteEnergy) {
  PinatuboCostModel dense(geo_, nvm::Tech::kPcm, 1.0);
  PinatuboCostModel sparse(geo_, nvm::Tech::kPcm, 0.0);
  const auto plan = plan_or(2, 1ull << 14);
  const double set_e = dense.plan_cost(plan).energy.get(Energy::kPimWrite);
  const double reset_e = sparse.plan_cost(plan).energy.get(Energy::kPimWrite);
  const auto& cell = nvm::cell_params(nvm::Tech::kPcm);
  EXPECT_NEAR(set_e / reset_e, cell.set_energy_pj / cell.reset_energy_pj,
              1e-6);
}

}  // namespace
}  // namespace pinatubo::core
