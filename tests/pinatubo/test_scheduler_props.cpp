// Property sweeps over the scheduler + cost model: invariants that must
// hold for every (op, operand count, vector length, row cap) combination.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>

#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"

namespace pinatubo::core {
namespace {

using Params = std::tuple<unsigned /*n_ops*/, std::uint64_t /*bits*/,
                          unsigned /*max_rows*/>;

/// A step's group within one op: groups rotate across ranks and rows, so
/// (rank, row) of the step's address names the group one-to-one.
using GroupKey = std::pair<unsigned, unsigned>;
GroupKey group_of(const PlanStep& s) { return {s.at.rank, s.at.row}; }

class SchedulerProps : public ::testing::TestWithParam<Params> {
 protected:
  SchedulerProps()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{std::get<2>(GetParam()), nvm::Tech::kPcm}),
        model_(geo_, nvm::Tech::kPcm) {}

  OpPlan make_plan(BitOp op) {
    const auto [n, bits, max_rows] = GetParam();
    (void)max_rows;
    std::vector<Placement> srcs;
    const unsigned count = op == BitOp::kInv ? 1 : n;
    for (unsigned i = 0; i < count; ++i)
      srcs.push_back(alloc_.allocate(bits));
    return sched_.plan(op, srcs, srcs.back(), false);
  }

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel model_;
};

TEST_P(SchedulerProps, EveryStepWithinActivationLimit) {
  const auto plan = make_plan(BitOp::kOr);
  const unsigned limit = sched_.effective_max_rows(BitOp::kOr);
  for (const auto& s : plan.steps) EXPECT_LE(s.rows, limit);
}

TEST_P(SchedulerProps, ChainCoversAllOperands) {
  // Total NEW operands opened across the chain == operand count:
  // first step opens k0, each later step opens rows-1 new (1 accumulator).
  const auto [n, bits, max_rows] = GetParam();
  (void)bits;
  (void)max_rows;
  const auto plan = make_plan(BitOp::kOr);
  std::map<GroupKey, unsigned> opened;
  std::map<GroupKey, unsigned> steps_per_group;
  for (const auto& s : plan.steps) {
    const bool first = steps_per_group[group_of(s)]++ == 0;
    opened[group_of(s)] += first ? s.rows : s.rows - 1;
  }
  ASSERT_FALSE(opened.empty());
  for (const auto& [g, rows] : opened)
    EXPECT_EQ(rows, n) << "group at rank " << g.first << " row " << g.second;
}

TEST_P(SchedulerProps, BitsConserved) {
  const auto [n, bits, max_rows] = GetParam();
  (void)n;
  (void)max_rows;
  const auto plan = make_plan(BitOp::kOr);
  std::map<GroupKey, std::uint64_t> bits_per_group;
  for (const auto& s : plan.steps)
    bits_per_group[group_of(s)] = s.bits;  // all steps of a group agree
  std::uint64_t total = 0;
  for (const auto& [g, b] : bits_per_group) total += b;
  EXPECT_EQ(total, bits);
}

TEST_P(SchedulerProps, CostPositiveAndMonotoneInSteps) {
  const auto or_plan = make_plan(BitOp::kOr);
  const auto cost = model_.plan_cost(or_plan);
  EXPECT_GT(cost.time_ns, 0.0);
  EXPECT_GT(cost.energy.total_pj(), 0.0);
  // Prefix sums are monotone.
  mem::Cost acc;
  for (const auto& s : or_plan.steps) {
    const auto before = acc.time_ns;
    acc += model_.step_cost(s);
    EXPECT_GT(acc.time_ns, before);
  }
  EXPECT_NEAR(acc.time_ns, cost.time_ns, 1e-9);
}

TEST_P(SchedulerProps, LoweringCountsAgree) {
  const auto plan = make_plan(BitOp::kOr);
  std::uint64_t expect = 0;
  for (const auto& s : plan.steps) expect += model_.command_count(s);
  EXPECT_EQ(model_.lower(plan).size(), expect);
}

TEST_P(SchedulerProps, EngineNeverSlowerThanSerial) {
  std::vector<OpPlan> plans;
  mem::Cost serial;
  for (int i = 0; i < 4; ++i) {
    plans.push_back(make_plan(BitOp::kOr));
    serial += model_.plan_cost(plans.back());
  }
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  EXPECT_LE(r.cost.time_ns, serial.time_ns + 1e-6);
  EXPECT_NEAR(r.serial_time_ns, serial.time_ns, 1e-6 * serial.time_ns);
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-6 * serial.energy.total_pj());
  // The serial knob reproduces the synchronous-driver sum exactly.
  const ExecutionEngine serial_engine(model_, EngineOptions{true});
  EXPECT_NEAR(serial_engine.run(plans).cost.time_ns, serial.time_ns,
              1e-9 * serial.time_ns);
}

TEST_P(SchedulerProps, SmallerRowCapNeverFaster) {
  const auto [n, bits, max_rows] = GetParam();
  // Cap 2 against the swept cap; the max_rows = 2 entries take cap 3, the
  // adjacent pair the sweep would otherwise miss.
  OpScheduler small(geo_, SchedulerConfig{2, nvm::Tech::kPcm});
  OpScheduler big(geo_, SchedulerConfig{max_rows > 2 ? max_rows : 3,
                                        nvm::Tech::kPcm});
  std::vector<Placement> srcs;
  for (unsigned i = 0; i < n; ++i) srcs.push_back(alloc_.allocate(bits));
  const auto big_plan = big.plan(BitOp::kOr, srcs, srcs.back(), false);
  const auto small_plan = small.plan(BitOp::kOr, srcs, srcs.back(), false);
  EXPECT_LE(model_.plan_cost(big_plan).time_ns,
            model_.plan_cost(small_plan).time_ns + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProps,
    ::testing::Combine(
        ::testing::Values<unsigned>(2, 3, 5, 16, 100, 128),
        ::testing::Values<std::uint64_t>(100, 1ull << 14, (1ull << 14) + 1,
                                         1ull << 19, 1ull << 21),
        ::testing::Values<unsigned>(2, 16, 128)));

}  // namespace
}  // namespace pinatubo::core
