// ExecutionEngine: dependency-aware batched scheduling over OpPlans.
#include "pinatubo/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/scheduler.hpp"

namespace pinatubo::core {
namespace {

/// Prices one fixed-seed batch of ORs on a `channels`-channel machine and
/// renders it as text: makespan and serial sum, then one line per step in
/// issue order ("plan.step channel start done bus"), every double as %a.
/// Four subarrays per bank make placements wrap onto every channel; an op
/// whose operands wrap onto two channels is rejected by the scheduler and
/// left out of the batch.
std::string multi_channel_schedule(unsigned channels, AllocPolicy policy,
                                   bool serial) {
  mem::Geometry geo;
  geo.channels = channels;
  geo.subarrays_per_bank = 4;
  const RowAllocator alloc(geo, policy);
  const OpScheduler sched(geo, SchedulerConfig{128, nvm::Tech::kPcm});
  const PinatuboCostModel model(geo, nvm::Tech::kPcm);
  const std::uint64_t bits = geo.row_group_bits();
  const std::uint64_t quarter = geo.total_bits() / bits / 4;
  Rng rng(channels);
  std::vector<OpPlan> plans;
  while (plans.size() < 5) {
    const std::uint64_t region = rng.next() % 4;
    const std::uint64_t base = region * quarter + rng.next() % (8 * channels);
    std::vector<Placement> srcs;
    const std::uint64_t fan = 2 + rng.next() % 3;
    for (std::uint64_t k = 0; k < fan; ++k)
      srcs.push_back(alloc.virtual_placement(base + 2 * k, bits));
    const Placement dst =
        alloc.virtual_placement(base + 1 + rng.next() % 8, bits);
    const bool host_read = rng.next() % 2 == 0;
    try {
      plans.push_back(sched.plan(BitOp::kOr, srcs, dst, host_read));
    } catch (const Error&) {  // operands on two channels
    }
  }
  const auto r = ExecutionEngine(model, EngineOptions{serial}).run(plans);
  char line[160];
  std::snprintf(line, sizeof line, "%a %a\n", r.cost.time_ns,
                r.serial_time_ns);
  std::string out = line;
  for (const auto& s : r.schedule) {
    std::snprintf(line, sizeof line, "%u.%u %u %a %a %a\n", s.plan, s.step,
                  plans[s.plan].steps[s.step].at.channel, s.start_ns,
                  s.done_ns, s.bus_ns);
    out += line;
  }
  return out;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{128, nvm::Tech::kPcm}),
        model_(geo_, nvm::Tech::kPcm) {}

  Placement vec(std::uint64_t index, std::uint64_t bits) {
    return alloc_.virtual_placement(index, bits);
  }
  OpPlan or_plan(const std::vector<Placement>& srcs, const Placement& dst,
                 bool host_read = false) {
    return sched_.plan(BitOp::kOr, srcs, dst, host_read);
  }
  mem::Cost serial_sum(const std::vector<OpPlan>& plans) {
    mem::Cost c;
    for (const auto& p : plans) c += model_.plan_cost(p);
    return c;
  }

  /// First vector index placed in rank 1 (full-group vectors walk 128
  /// rows x 64 subarrays of rank 0 first).
  static constexpr std::uint64_t kRank1 = 64ull * 128;
  static constexpr std::uint64_t kGroupBits = 1ull << 19;

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel model_;
};

TEST_F(EngineTest, EmptyBatchIsFree) {
  const ExecutionEngine engine(model_);
  const auto r = engine.run({});
  EXPECT_DOUBLE_EQ(r.cost.time_ns, 0.0);
  EXPECT_DOUBLE_EQ(r.cost.energy.total_pj(), 0.0);
  EXPECT_TRUE(r.schedule.empty());
}

TEST_F(EngineTest, SerialModeIsProgramOrderSum) {
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(kRank1, kGroupBits), vec(kRank1 + 1, kGroupBits)},
                          vec(kRank1 + 2, kGroupBits)));
  const ExecutionEngine engine(model_, EngineOptions{true});
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_DOUBLE_EQ(r.cost.time_ns, serial.time_ns);
  EXPECT_DOUBLE_EQ(r.serial_time_ns, serial.time_ns);
  // Schedule stays in program order.
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0].plan, 0u);
  EXPECT_EQ(r.schedule[1].plan, 1u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, BatchOfOneChainMatchesPlanCost) {
  // A 200-operand OR exceeds the 128-row activation cap, so it lowers to
  // a chain of dependent intra steps (the dst row is the accumulator) on
  // one rank: no overlap is possible and the engine must reproduce the
  // serial sum.
  std::vector<Placement> srcs;
  for (std::uint64_t i = 0; i < 200; ++i) srcs.push_back(vec(i, kGroupBits));
  const auto plan = or_plan(srcs, vec(200, kGroupBits), true);
  ASSERT_GT(plan.steps.size(), 1u);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  const auto serial = model_.plan_cost(plan);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-9 * serial.energy.total_pj());
}

TEST_F(EngineTest, IndependentRanksOverlap) {
  // Same shape of work on rank 0 and rank 1: the engine should hide one
  // behind the other almost entirely.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(kRank1, kGroupBits), vec(kRank1 + 1, kGroupBits)},
                          vec(kRank1 + 2, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  const double single = model_.plan_cost(plans[0]).time_ns;
  EXPECT_LT(r.cost.time_ns, serial.time_ns - 1e-6);  // strictly overlapped
  EXPECT_GE(r.cost.time_ns, single - 1e-9);          // but not free
  EXPECT_LT(r.cost.time_ns, 1.1 * single);           // near-perfect overlap
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-9 * serial.energy.total_pj());
  EXPECT_NEAR(r.serial_time_ns, serial.time_ns, 1e-9 * serial.time_ns);
}

TEST_F(EngineTest, SameRankSerializesOnTheBankCluster) {
  // Independent data, but both ops execute on rank 0: the lock-step bank
  // cluster is one resource, so no overlap.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(3, kGroupBits), vec(4, kGroupBits)},
                          vec(5, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
}

TEST_F(EngineTest, MultiGroupOpOverlapsItsOwnGroups) {
  // 2^20-bit vectors span two row groups that rotate across the ranks, so
  // a single op's group steps are independent and overlap.
  const std::uint64_t bits = 1ull << 20;
  const auto plan = or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits));
  ASSERT_EQ(plan.steps.size(), 2u);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  EXPECT_LT(r.cost.time_ns, model_.plan_cost(plan).time_ns - 1e-6);
}

TEST_F(EngineTest, HostReadWaitsForAllGroups) {
  const std::uint64_t bits = 1ull << 20;  // 2 groups -> both ranks busy
  const auto plan = or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits), true);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  ASSERT_EQ(r.schedule.size(), 3u);
  double compute_done = 0.0;
  double host_start = -1.0;
  for (const auto& ss : r.schedule) {
    const auto& step = plan.steps[ss.step];
    if (step.kind == StepKind::kHostRead)
      host_start = ss.start_ns;
    else
      compute_done = std::max(compute_done, ss.done_ns);
  }
  ASSERT_GE(host_start, 0.0);
  // The RAW dependencies on every group's result gate the burst.
  EXPECT_GE(host_start, compute_done - 1e-9);
}

TEST_F(EngineTest, WriteAfterWriteKeepsProgramOrder) {
  // Both ops write the same destination row: the schedule must keep
  // program order between them regardless of readiness ties.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(3, kGroupBits), vec(4, kGroupBits)},
                          vec(2, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0].plan, 0u);
  EXPECT_EQ(r.schedule[1].plan, 1u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, ReadAfterWriteChainsAcrossOps) {
  // Op B consumes op A's destination: B waits even though B's rank-1
  // operand would otherwise be free to start.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(2, kGroupBits), vec(3, kGroupBits)},
                          vec(4, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, HostBurstsSerializeOnTheDataBus) {
  // Two overlapped ops both burst their results to the host: compute
  // overlaps across ranks, but the channel's data bus carries one burst
  // at a time.
  const std::uint64_t bits = kGroupBits;
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits), true));
  plans.push_back(or_plan({vec(kRank1, bits), vec(kRank1 + 1, bits)},
                          vec(kRank1 + 2, bits), true));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  const double burst_ns =
      static_cast<double>(bits) / 8.0 / model_.bus().data_gbps;
  EXPECT_LT(r.cost.time_ns, serial.time_ns - 1e-6);
  // Two bursts cannot co-occupy the bus.
  EXPECT_GE(r.cost.time_ns, 2.0 * burst_ns);
  EXPECT_EQ(r.profile.bus_bytes, 2 * bits / 8);
}

TEST_F(EngineTest, ProfileAccountsEveryStep) {
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits), true));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  std::uint64_t steps = 0;
  double time = 0.0, energy = 0.0;
  for (std::size_t k = 0; k < kStepKindCount; ++k) {
    steps += r.profile.steps[k];
    time += r.profile.time_ns[k];
    energy += r.profile.energy_pj[k];
  }
  EXPECT_EQ(steps, plans[0].steps.size());
  EXPECT_NEAR(time, r.serial_time_ns, 1e-9 * r.serial_time_ns);
  EXPECT_NEAR(energy, r.cost.energy.total_pj(),
              1e-9 * r.cost.energy.total_pj());
  EXPECT_EQ(r.profile.steps[step_index(StepKind::kHostRead)], 1u);
}

TEST_F(EngineTest, MultiChannelScheduleMatchesParent) {
  // Recorded from the scheduler that priced each channel on its own thread
  // and merged the per-channel schedules by start time: the one greedy
  // pass over the whole batch must reproduce them bit for bit.
  struct Case {
    unsigned channels;
    AllocPolicy policy;
    bool serial;
    const char* expect;
  };
  const Case cases[] = {
      {2, AllocPolicy::kPimAware, false,
       R"(0x1.919999999999ap+12 0x1.a0f5fffffffffp+13
0.0 1 0x0p+0 0x1.eb8cccccccccep+8 0x0p+0
1.0 0 0x0p+0 0x1.ecccccccccccep+8 0x0p+0
3.0 0 0x1.4p+0 0x1.ee0cccccccccep+8 0x0p+0
0.1 1 0x1.eb8ccccccccdp+8 0x1.72b8ccccccccdp+12 0x1.4p+12
1.1 0 0x1.eccccccccccdp+8 0x1.72ccccccccccdp+12 0x1.4p+12
2.0 1 0x1.72b8ccccccccdp+12 0x1.918599999999ap+12 0x0p+0
4.0 0 0x1.72ccccccccccdp+12 0x1.919999999999ap+12 0x0p+0
)"},
      {2, AllocPolicy::kPimAware, true,
       R"(0x1.a0f5fffffffffp+13 0x1.a0f5fffffffffp+13
0.0 1 0x0p+0 0x1.eb8cccccccccep+8 0x0p+0
0.1 1 0x1.eb8cccccccccep+8 0x1.72b8ccccccccdp+12 0x1.4p+12
1.0 0 0x1.72b8ccccccccdp+12 0x1.918599999999ap+12 0x0p+0
1.1 0 0x1.918599999999ap+12 0x1.72c2ccccccccdp+13 0x1.4p+12
2.0 1 0x1.72c2ccccccccdp+13 0x1.8229333333333p+13 0x0p+0
3.0 0 0x1.8229333333333p+13 0x1.918f999999999p+13 0x0p+0
4.0 0 0x1.918f999999999p+13 0x1.a0f5fffffffffp+13 0x0p+0
)"},
      {2, AllocPolicy::kNaive, false,
       R"(0x1.aa0f99999999ap+14 0x1.4ee3199999998p+15
0.0 0 0x0p+0 0x1.50f999999999ap+9 0x0p+0
1.0 1 0x0p+0 0x1.50f999999999ap+9 0x0p+0
3.0 1 0x1.4p+0 0x1.519999999999ap+9 0x0p+0
4.0 0 0x1.4p+0 0x1.519999999999ap+9 0x0p+0
0.1 0 0x1.50f9999999998p+9 0x1.943e666666666p+12 0x1.4p+12
1.1 1 0x1.50f9999999998p+9 0x1.943e666666666p+12 0x1.4p+12
3.1 1 0x1.519999999999ap+9 0x1.514999999999ap+10 0x0p+0
3.2 1 0x1.803e666666666p+12 0x1.6a1f333333333p+13 0x1.4p+12
0.2 0 0x1.943e666666666p+12 0x1.741f333333333p+13 0x1.4p+12
1.2 1 0x1.550f99999999ap+13 0x1.050f99999999ap+14 0x1.4p+12
1.3 1 0x1.050f99999999ap+14 0x1.5a0f99999999ap+14 0x1.4p+12
2.0 1 0x1.4f87ccccccccdp+14 0x1.aa0f99999999ap+14 0x1.4p+12
)"},
      {2, AllocPolicy::kNaive, true,
       R"(0x1.4ee3199999998p+15 0x1.4ee3199999998p+15
0.0 0 0x0p+0 0x1.50f999999999ap+9 0x0p+0
0.1 0 0x1.50f999999999ap+9 0x1.943e666666666p+12 0x1.4p+12
0.2 0 0x1.943e666666666p+12 0x1.741f333333333p+13 0x1.4p+12
1.0 1 0x1.741f333333333p+13 0x1.892eccccccccdp+13 0x0p+0
1.1 1 0x1.892eccccccccdp+13 0x1.1f1f333333333p+14 0x1.4p+12
1.2 1 0x1.1f1f333333333p+14 0x1.79a7p+14 0x1.4p+12
1.3 1 0x1.79a7p+14 0x1.cea7p+14 0x1.4p+12
2.0 1 0x1.cea7p+14 0x1.1497666666666p+15 0x1.4p+12
3.0 1 0x1.1497666666666p+15 0x1.19db4ccccccccp+15 0x0p+0
3.1 1 0x1.19db4ccccccccp+15 0x1.1f1f333333332p+15 0x0p+0
3.2 1 0x1.1f1f333333332p+15 0x1.499f333333332p+15 0x1.4p+12
4.0 0 0x1.499f333333332p+15 0x1.4ee3199999998p+15 0x0p+0
)"},
      {4, AllocPolicy::kPimAware, false,
       R"(0x1.72b8ccccccccdp+12 0x1.eep+12
0.0 3 0x0p+0 0x1.ee0cccccccccep+8 0x0p+0
1.0 2 0x0p+0 0x1.ecccccccccccep+8 0x0p+0
3.0 0 0x0p+0 0x1.eb8cccccccccep+8 0x0p+0
4.0 1 0x0p+0 0x1.eb8cccccccccep+8 0x0p+0
4.1 1 0x1.eb8ccccccccdp+8 0x1.72b8ccccccccdp+12 0x1.4p+12
2.0 3 0x1.ee0cccccccccep+8 0x1.ee0cccccccccep+9 0x0p+0
)"},
      {4, AllocPolicy::kPimAware, true,
       R"(0x1.eep+12 0x1.eep+12
0.0 3 0x0p+0 0x1.ee0cccccccccep+8 0x0p+0
1.0 2 0x1.ee0cccccccccep+8 0x1.ed6cccccccccep+9 0x0p+0
2.0 3 0x1.ed6cccccccccep+9 0x1.723999999999ap+10 0x0p+0
3.0 0 0x1.723999999999ap+10 0x1.ed1cccccccccep+10 0x0p+0
4.0 1 0x1.ed1cccccccccep+10 0x1.3400000000001p+11 0x0p+0
4.1 1 0x1.3400000000001p+11 0x1.eep+12 0x1.4p+12
)"},
      {4, AllocPolicy::kNaive, false,
       R"(0x1.7e1f333333333p+13 0x1.d25d99999999ap+13
0.0 2 0x0p+0 0x1.50f999999999ap+9 0x0p+0
2.0 3 0x0p+0 0x1.50f999999999ap+9 0x0p+0
4.0 1 0x0p+0 0x1.50f999999999ap+9 0x0p+0
0.1 2 0x1.50f999999999ap+9 0x1.50f999999999ap+10 0x0p+0
2.1 3 0x1.50f9999999998p+9 0x1.7e1f333333333p+12 0x1.4p+12
1.0 2 0x1.50f999999999ap+10 0x1.f976666666667p+10 0x0p+0
3.0 3 0x1.7e1f333333333p+12 0x1.a83e666666666p+12 0x0p+0
3.1 3 0x1.a83e666666666p+12 0x1.7e1f333333333p+13 0x1.4p+12
)"},
      {4, AllocPolicy::kNaive, true,
       R"(0x1.d25d99999999ap+13 0x1.d25d99999999ap+13
0.0 2 0x0p+0 0x1.50f999999999ap+9 0x0p+0
0.1 2 0x1.50f999999999ap+9 0x1.50f999999999ap+10 0x0p+0
1.0 2 0x1.50f999999999ap+10 0x1.f976666666667p+10 0x0p+0
2.0 3 0x1.f976666666667p+10 0x1.50f999999999ap+11 0x0p+0
2.1 3 0x1.50f999999999ap+11 0x1.fc7cccccccccdp+12 0x1.4p+12
3.0 3 0x1.fc7cccccccccdp+12 0x1.134ep+13 0x0p+0
3.1 3 0x1.134ep+13 0x1.bd4ep+13 0x1.4p+12
4.0 1 0x1.bd4ep+13 0x1.d25d99999999ap+13 0x0p+0
)"},
  };
  for (const Case& c : cases)
    EXPECT_EQ(multi_channel_schedule(c.channels, c.policy, c.serial), c.expect)
        << c.channels << " channels, "
        << (c.policy == AllocPolicy::kNaive ? "naive" : "pim-aware")
        << (c.serial ? ", serial" : ", overlapped");
}

}  // namespace
}  // namespace pinatubo::core
