#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/ideal_backend.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"

namespace pinatubo::sim {
namespace {

using mem::Energy;

TraceOp make_op(BitOp op, unsigned n, std::uint64_t bits) {
  TraceOp t;
  t.op = op;
  t.bits = bits;
  for (unsigned i = 0; i < n; ++i) t.srcs.push_back(i);
  t.dst = n;
  return t;
}

TEST(SdramBackend, OpCostScalesWithOperands) {
  SdramBackend b;
  const auto c2 = b.op_cost(2, 1ull << 19, false);
  const auto c4 = b.op_cost(4, 1ull << 19, false);
  // n+1 AAPs + (n-1) TRAs: 2->(3+1)=4 units, 4->(5+3)=8 units.
  EXPECT_NEAR(c4.time_ns / c2.time_ns, 2.0, 1e-9);
}

TEST(SdramBackend, GroupsSerialize) {
  SdramBackend b;
  const auto c1 = b.op_cost(2, 1ull << 19, false);
  const auto c4 = b.op_cost(2, 1ull << 21, false);
  EXPECT_NEAR(c4.time_ns / c1.time_ns, 4.0, 1e-9);
}

TEST(SdramBackend, AapUsesDramRowCycle) {
  SdramBackend b;
  const auto c = b.op_cost(2, 1, false);
  // 4 row-cycle units of (tRAS + tRP) = 48.75 ns each.
  EXPECT_NEAR(c.time_ns, 4 * 48.75, 1e-6);
}

TEST(SdramBackend, HostReadAddsBusTransfer) {
  SdramBackend b;
  const double dt = b.op_cost(2, 1ull << 19, true).time_ns -
                    b.op_cost(2, 1ull << 19, false).time_ns;
  EXPECT_NEAR(dt, 65536.0 / 12.8, 1.0);
}

TEST(SdramBackend, RejectsBadShapes) {
  SdramBackend b;
  EXPECT_THROW(b.op_cost(1, 100, false), Error);
  EXPECT_THROW(b.op_cost(2, 0, false), Error);
}

TEST(AcPimBackend, StepsScaleWithOperands) {
  AcPimBackend b;
  const auto c2 =
      b.op_cost(BitOp::kOr, 2, 1ull << 19, false, 0.5);
  const auto c5 =
      b.op_cost(BitOp::kOr, 5, 1ull << 19, false, 0.5);
  EXPECT_NEAR(c5.time_ns / c2.time_ns, 4.0, 1e-9);
}

TEST(AcPimBackend, SupportsAllOps) {
  AcPimBackend b;
  for (BitOp op : {BitOp::kOr, BitOp::kAnd, BitOp::kXor}) {
    const auto c = b.op_cost(op, 2, 1 << 16, false, 0.5);
    EXPECT_GT(c.time_ns, 0.0) << to_string(op);
  }
  const auto inv = b.op_cost(BitOp::kInv, 1, 1 << 16, false, 0.5);
  EXPECT_GT(inv.time_ns, 0.0);
}

TEST(AcPimBackend, EnergyComponents) {
  AcPimBackend b;
  const auto c = b.op_cost(BitOp::kOr, 2, 1ull << 19, false, 0.5);
  EXPECT_GT(c.energy.get(Energy::kAcpimRead), 0.0);
  EXPECT_GT(c.energy.get(Energy::kAcpimLogic), 0.0);
  EXPECT_GT(c.energy.get(Energy::kAcpimWrite), 0.0);
  // The PCM write of the intermediate dominates its energy.
  EXPECT_GT(c.energy.get(Energy::kAcpimWrite),
            c.energy.get(Energy::kAcpimLogic));
}

TEST(Backends, GoldenOpCostTotals) {
  // Pinned as exact doubles: any change to a component or to the order
  // total_pj() sums them in moves these.
  const auto sdram = SdramBackend().op_cost(3, 1ull << 20, true);
  EXPECT_EQ(sdram.time_ns, 0x1.5248p+13);
  EXPECT_EQ(sdram.energy.total_pj(), 0x1.6570a3d70a3d7p+24);
  const auto acpim =
      AcPimBackend().op_cost(BitOp::kOr, 3, 1ull << 20, true, 0.5);
  EXPECT_EQ(acpim.time_ns, 0x1.9376666666666p+13);
  EXPECT_EQ(acpim.energy.total_pj(), 0x1.071710196d8f5p+26);
}

TEST(AcPimBackend, SlowerThanSdramPerOp) {
  // PCM write recovery (151 ns) vs DRAM row cycles: AC-PIM's per-step
  // cost is higher, and the paper finds it slower in every case.
  AcPimBackend acpim;
  SdramBackend sdram;
  const double ta =
      acpim.op_cost(BitOp::kOr, 2, 1ull << 19, false, 0.5).time_ns;
  const double ts = sdram.op_cost(2, 1ull << 19, false).time_ns;
  EXPECT_GT(ta, ts);
}

TEST(Backends, ExecuteAggregatesOps) {
  OpTrace trace;
  trace.ops.push_back(make_op(BitOp::kOr, 2, 1 << 16));
  trace.ops.push_back(make_op(BitOp::kXor, 2, 1 << 16));
  trace.scalar_ops = 10000;
  trace.scalar_bytes = 1 << 16;

  for (Backend* b : std::initializer_list<Backend*>{
           new SimdBackend(MemKind::kPcm), new SdramBackend(),
           new AcPimBackend(), new IdealBackend()}) {
    const auto r = b->execute(trace);
    EXPECT_GE(r.bitwise.time_ns, 0.0) << b->name();
    EXPECT_GT(r.scalar.time_ns, 0.0) << b->name();
    EXPECT_GT(r.total_time_ns(), 0.0) << b->name();
    EXPECT_FALSE(b->name().empty());
    delete b;
  }
}

TEST(Backends, Names) {
  EXPECT_EQ(SimdBackend(MemKind::kDram).name(), "SIMD-DRAM");
  EXPECT_EQ(SimdBackend(MemKind::kPcm).name(), "SIMD-PCM");
  EXPECT_EQ(SdramBackend().name(), "S-DRAM");
  EXPECT_EQ(AcPimBackend().name(), "AC-PIM");
  EXPECT_EQ(IdealBackend().name(), "Ideal");
}

}  // namespace
}  // namespace pinatubo::sim
