#include "sim/cpu_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

using mem::Energy;

TraceOp or2(std::uint64_t bits, std::uint64_t base_id = 0) {
  TraceOp op;
  op.op = BitOp::kOr;
  op.srcs = {base_id, base_id + 1};
  op.dst = base_id + 2;
  op.bits = bits;
  return op;
}

TEST(StreamParams, PcmSlowerThanDram) {
  const auto d = stream_params(MemKind::kDram);
  const auto p = stream_params(MemKind::kPcm);
  EXPECT_GT(d.read_gbps, p.read_gbps);
  EXPECT_GT(d.write_gbps, p.write_gbps);
  EXPECT_LT(d.latency_ns, p.latency_ns);
  EXPECT_GT(p.write_pj_per_bit, d.write_pj_per_bit);
}

TEST(SimdCpuModel, ComputeCeiling) {
  SimdCpuModel cpu({}, MemKind::kDram);
  // Single-threaded kernel: 1 core * 16 B * 3.3 GHz = 52.8 GB/s.
  EXPECT_NEAR(cpu.compute_gbps(), 52.8, 0.1);
  CpuConfig all;
  all.bulk_cores = 4;
  SimdCpuModel wide(all, MemKind::kDram);
  EXPECT_NEAR(wide.compute_gbps(), 211.2, 0.1);
}

TEST(SimdCpuModel, LargeOpIsMemoryBound) {
  SimdCpuModel cpu({}, MemKind::kDram);
  const std::uint64_t bits = 1ull << 26;  // 8 MiB per operand
  const auto cost = cpu.bulk_op(or2(bits));
  const double bytes = 3.0 * (bits / 8.0);
  // Time must be at least read+write streaming time and far above the
  // compute ceiling's time.
  EXPECT_GT(cost.time_ns, bytes / 12.0);
  EXPECT_GT(cost.time_ns, 3 * bytes / cpu.compute_gbps());
}

TEST(SimdCpuModel, CacheResidentOpIsFast) {
  SimdCpuModel cpu({}, MemKind::kDram);
  const std::uint64_t bits = 1ull << 17;  // 16 KiB operands, fit in caches
  cpu.bulk_op(or2(bits));                 // warm
  const auto warm = cpu.bulk_op(or2(bits));
  // Served from caches: no memory reads.
  EXPECT_EQ(warm.energy.get(Energy::kMemRead), 0.0);
  // And much faster than the same op streamed from memory.
  SimdCpuModel cold({}, MemKind::kDram);
  const auto first = cold.bulk_op(or2(bits));
  EXPECT_LT(warm.time_ns, first.time_ns);
}

TEST(SimdCpuModel, PcmWritePenaltyShows) {
  const std::uint64_t bits = 1ull << 26;
  SimdCpuModel dram({}, MemKind::kDram);
  SimdCpuModel pcm({}, MemKind::kPcm);
  const double td = dram.bulk_op(or2(bits)).time_ns;
  const double tp = pcm.bulk_op(or2(bits)).time_ns;
  EXPECT_GT(tp, 1.2 * td);
}

TEST(SimdCpuModel, EnergyHasCoreAndMemoryParts) {
  SimdCpuModel cpu({}, MemKind::kPcm);
  const auto cost = cpu.bulk_op(or2(1ull << 26));
  EXPECT_GT(cost.energy.get(Energy::kCpuCore), 0.0);
  EXPECT_GT(cost.energy.get(Energy::kMemRead), 0.0);
  EXPECT_GT(cost.energy.get(Energy::kMemWrite), 0.0);
  // Core power dominates on streaming kernels (40 W for the whole op).
  EXPECT_GT(cost.energy.get(Energy::kCpuCore),
            cost.energy.get(Energy::kMemRead));
}

TEST(SimdCpuModel, MultiOperandScalesLinearly) {
  SimdCpuModel cpu({}, MemKind::kPcm);
  TraceOp op128 = or2(1ull << 23);
  op128.srcs.clear();
  for (std::uint64_t i = 0; i < 128; ++i) op128.srcs.push_back(i);
  const auto c2 = cpu.bulk_op(or2(1ull << 23, 1000));
  const auto c128 = cpu.bulk_op(op128);
  // Both ops are miss-latency bound on one core, so the ratio follows the
  // read-line counts: 130/3 ~= 43.
  EXPECT_NEAR(c128.time_ns / c2.time_ns, 43.0, 5.0);
}

TEST(SimdCpuModel, ScalarCost) {
  SimdCpuModel cpu({}, MemKind::kDram);
  const auto c = cpu.scalar(6'600'000, 0);
  // 6.6e6 ops at 2 IPC, 3.3 GHz -> 1 ms.
  EXPECT_NEAR(c.time_ns, 1e6, 1e3);
  EXPECT_GT(c.energy.get(Energy::kCpuCore), 0.0);
  const auto with_mem = cpu.scalar(1000, 1 << 20);
  EXPECT_GT(with_mem.time_ns, c.time_ns / 1000);
  EXPECT_GT(with_mem.energy.get(Energy::kMemRead), 0.0);
}

TEST(SimdCpuModel, ScalarPricingIgnoresTheCache) {
  // scalar() is closed form: a model that never touched its cache, one
  // that did and was reset, and the pinned values must all agree exactly.
  struct Golden {
    MemKind kind;
    double time_ns, total_pj, core_pj, read_pj, l2_pj;
  };
  const Golden golden[] = {
      {MemKind::kDram, 1030840.4705882353, 15481147193.22353,
       15462607058.82353, 15099494.399999999, 3440640},
      {MemKind::kPcm, 1040853.6103896104, 15641410619.844156,
       15612804155.844156, 25165824, 3440640},
  };
  for (const Golden& g : golden) {
    const SimdCpuModel fresh({}, g.kind);
    const auto c = fresh.scalar(6'600'000, 1 << 20);
    EXPECT_EQ(c.time_ns, g.time_ns);
    EXPECT_EQ(c.energy.total_pj(), g.total_pj);
    EXPECT_EQ(c.energy.get(Energy::kCpuCore), g.core_pj);
    EXPECT_EQ(c.energy.get(Energy::kMemRead), g.read_pj);
    EXPECT_EQ(c.energy.get(Energy::kCpuL2), g.l2_pj);

    SimdCpuModel used({}, g.kind);
    used.bulk_op(or2(1 << 20));
    used.reset();
    const auto u = used.scalar(6'600'000, 1 << 20);
    EXPECT_EQ(u.time_ns, c.time_ns);
    EXPECT_EQ(u.energy.to_string(), c.energy.to_string());
    EXPECT_EQ(u.energy.total_pj(), c.energy.total_pj());
  }
}

TEST(SimdCpuModel, GoldenBulkOpTotals) {
  // A walked op served from the caches and a streaming op, pinned as exact
  // doubles: any change to the per-level cache components or to the order
  // total_pj() sums them in moves these.
  SimdCpuModel dram({}, MemKind::kDram);
  dram.bulk_op(or2(1ull << 18));  // 32 KiB operands: warm L2/L3
  const auto cached = dram.bulk_op(or2(1ull << 18));
  EXPECT_GT(cached.energy.get(Energy::kCpuL2), 0.0);
  EXPECT_EQ(cached.time_ns, 0x1.364d9364d9365p+10);
  EXPECT_EQ(cached.energy.total_pj(), 0x1.7e4db26c9b26dp+25);

  SimdCpuModel pcm({}, MemKind::kPcm);
  const auto stream = pcm.bulk_op(or2(1ull << 28));  // 32 MiB operands
  EXPECT_EQ(stream.time_ns, 0x1.a4p+24);
  EXPECT_EQ(stream.energy.total_pj(), 0x1.03f9p+40);
}

TEST(SimdCpuModel, WordAlignedFootprint) {
  // The host kernels process whole 64-bit words, so the baseline is charged
  // per word: a sub-word tail costs the same as the rounded-up size, and
  // word-multiple sizes (every figure's operand size) are charged exactly
  // (bits+7)/8 bytes — the figure 10/11 baseline ratios are unaffected by
  // the word-parallel refactor.
  SimdCpuModel a({}, MemKind::kPcm), b({}, MemKind::kPcm);
  const auto exact = a.bulk_op(or2(1ull << 20));
  const auto tail = b.bulk_op(or2((1ull << 20) - 17));
  EXPECT_EQ(tail.time_ns, exact.time_ns);
  EXPECT_EQ(tail.energy.get(Energy::kMemRead),
            exact.energy.get(Energy::kMemRead));
  EXPECT_EQ(tail.energy.get(Energy::kMemWrite),
            exact.energy.get(Energy::kMemWrite));
  // And a whole extra word does cost more.
  SimdCpuModel c({}, MemKind::kPcm);
  const auto wider = c.bulk_op(or2((1ull << 20) + 64 * 64 * 8));
  EXPECT_GT(wider.time_ns, exact.time_ns);
}

TEST(SimdCpuModel, RejectsBadOps) {
  SimdCpuModel cpu({}, MemKind::kDram);
  TraceOp empty;
  empty.bits = 100;
  EXPECT_THROW(cpu.bulk_op(empty), Error);
  TraceOp zero = or2(0);
  EXPECT_THROW(cpu.bulk_op(zero), Error);
  // Whole words of 2^64 - 1 bits overflow: the op must not price as free.
  EXPECT_THROW(cpu.bulk_op(or2(~0ull)), Error);
  EXPECT_THROW(cpu.bulk_op(or2(kMaxTraceOpBits + 1)), Error);
}

TEST(MemKindNames, Printable) {
  EXPECT_STREQ(to_string(MemKind::kDram), "DRAM");
  EXPECT_STREQ(to_string(MemKind::kPcm), "PCM");
}

}  // namespace
}  // namespace pinatubo::sim
