// The DDR command stream as an executable specification: replaying the
// commands a runtime recorded, on a FRESH memory image with the same
// initial data, must reproduce the runtime's results bit for bit.
#include "pinatubo/replay.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pinatubo/driver.hpp"

namespace pinatubo::core {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  static PimRuntime::Options recording(nvm::Tech tech = nvm::Tech::kPcm,
                                       AllocPolicy policy =
                                           AllocPolicy::kPimAware) {
    PimRuntime::Options o;
    o.tech = tech;
    o.policy = policy;
    o.record_commands = true;
    return o;
  }

  /// Runs `body` on a recording runtime, then replays the command stream
  /// on a twin runtime holding the same initial data but no op results;
  /// asserts every vector matches afterwards.
  template <typename Body>
  void check_replay(std::uint64_t bits, std::size_t n_vectors, Body&& body,
                    const PimRuntime::Options& opts = recording()) {
    PimRuntime live(mem::Geometry{}, opts);
    PimRuntime twin(mem::Geometry{}, opts);
    Rng rng(2718);
    std::vector<PimRuntime::Handle> lh, th;
    for (std::size_t i = 0; i < n_vectors; ++i) {
      const auto v = BitVector::random(bits, 0.4, rng);
      lh.push_back(live.pim_malloc(bits));
      th.push_back(twin.pim_malloc(bits));
      live.pim_write(lh.back(), v);
      twin.pim_write(th.back(), v);
    }
    body(live, lh);
    CommandReplayer replayer(twin.memory());
    replayer.execute_all(live.commands());
    for (std::size_t i = 0; i < n_vectors; ++i)
      ASSERT_EQ(twin.pim_read(th[i]), live.pim_read(lh[i]))
          << "vector " << i;
    EXPECT_EQ(replayer.stats().commands, live.commands().size());
  }
};

TEST_F(ReplayTest, TwoRowOr) {
  check_replay(1ull << 14, 3, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
  });
}

TEST_F(ReplayTest, AllOpsSequence) {
  check_replay(5000, 4, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[3]);
    rt.pim_op(BitOp::kAnd, {h[3], h[2]}, h[3]);
    rt.pim_op(BitOp::kXor, {h[0], h[3]}, h[2]);
    rt.pim_op(BitOp::kInv, {h[2]}, h[1]);
  });
}

TEST_F(ReplayTest, MultiRowActivation) {
  check_replay(1ull << 14, 64, [](PimRuntime& rt, auto& h) {
    std::vector<PimRuntime::Handle> srcs(h.begin(), h.begin() + 63);
    rt.pim_op(BitOp::kOr, srcs, h[63]);
  });
}

TEST_F(ReplayTest, ChainedOrWithTwoRowCap) {
  auto opts = recording();
  opts.max_rows = 2;
  check_replay(
      2000, 8,
      [](PimRuntime& rt, auto& h) {
        std::vector<PimRuntime::Handle> srcs(h.begin(), h.end() - 1);
        rt.pim_op(BitOp::kOr, srcs, h.back());
      },
      opts);
}

TEST_F(ReplayTest, InPlaceAccumulation) {
  check_replay(1ull << 14, 8, [](PimRuntime& rt, auto& h) {
    // dst is also an operand: the chain must consume it first.
    std::vector<PimRuntime::Handle> srcs(h.begin(), h.end());
    rt.pim_op(BitOp::kXor, srcs, h[3]);
  });
}

TEST_F(ReplayTest, FullRowVectors) {
  check_replay(1ull << 19, 4, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1], h[2]}, h[3]);
  });
}

TEST_F(ReplayTest, MultiGroupRankMirroredVectors) {
  check_replay((1ull << 20) + 777, 3, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
    rt.pim_op(BitOp::kAnd, {h[2], h[0]}, h[2]);
  });
}

TEST_F(ReplayTest, BufferPathViaNaivePolicy) {
  // Naive placement scatters operands -> inter-subarray / inter-bank
  // command sequences (PIM_LOAD / PIM_GDL / PIM_IO).
  check_replay(
      1ull << 14, 4,
      [](PimRuntime& rt, auto& h) {
        rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
        rt.pim_op(BitOp::kXor, {h[2], h[3]}, h[0]);
        rt.pim_op(BitOp::kInv, {h[0]}, h[1]);
      },
      recording(nvm::Tech::kPcm, AllocPolicy::kNaive));
}

TEST_F(ReplayTest, MisalignedColumnsUseTheShifter) {
  // 200 one-stripe vectors span two column windows; an op between window-0
  // and window-1 vectors exercises the buffer path's alignment shifter.
  check_replay(1ull << 14, 200, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[150]}, h[1]);
    rt.pim_op(BitOp::kAnd, {h[150], h[151]}, h[2]);
  });
}

TEST_F(ReplayTest, SttDemotedAndReplays) {
  check_replay(
      3000, 3,
      [](PimRuntime& rt, auto& h) {
        rt.pim_op(BitOp::kAnd, {h[0], h[1]}, h[2]);  // buffer path on STT
        rt.pim_op(BitOp::kOr, {h[0], h[2]}, h[1]);   // intra
      },
      recording(nvm::Tech::kSttMram));
}

TEST_F(ReplayTest, RaggedTailWritesOnlyPricedStripes) {
  // Executed = priced: the ragged last group of a multi-group vector has
  // fewer sensing steps than the placement's stripes, and the runtime must
  // write exactly those stripes — no more cells than the replayed command
  // stream writes.  A 2-row cap chains the 3-operand OR.
  auto opts = recording();
  opts.max_rows = 2;
  const std::uint64_t bits = (1ull << 20) + 777;
  PimRuntime live(mem::Geometry{}, opts);
  PimRuntime twin(mem::Geometry{}, opts);
  Rng rng(99);
  std::vector<PimRuntime::Handle> lh, th;
  for (int i = 0; i < 4; ++i) {
    const auto v = BitVector::random(bits, 0.4, rng);
    lh.push_back(live.pim_malloc(bits));
    th.push_back(twin.pim_malloc(bits));
    live.pim_write(lh.back(), v);
    twin.pim_write(th.back(), v);
  }
  const std::uint64_t live_before = live.memory().wear().total_cell_writes();
  const std::uint64_t twin_before = twin.memory().wear().total_cell_writes();
  live.pim_op(BitOp::kOr, {lh[0], lh[1], lh[2]}, lh[3]);
  CommandReplayer replayer(twin.memory());
  replayer.execute_all(live.commands());
  EXPECT_EQ(twin.pim_read(th[3]), live.pim_read(lh[3]));
  EXPECT_EQ(live.memory().wear().total_cell_writes() - live_before,
            twin.memory().wear().total_cell_writes() - twin_before);
}

TEST(ReplayProtocol, ViolationsThrow) {
  mem::MainMemory memory({}, nvm::Tech::kPcm);
  CommandReplayer rp(memory);
  // Sensing with no open rows.
  EXPECT_THROW(rp.execute({mem::CmdKind::kPimSense, {}, BitOp::kOr, 0}),
               Error);
  // ACT without a preceding reset on that subarray.
  EXPECT_THROW(rp.execute({mem::CmdKind::kAct, {}, BitOp::kOr, 0}), Error);
  // Writeback with nothing latched.
  EXPECT_THROW(
      rp.execute({mem::CmdKind::kPimWriteback, {}, BitOp::kOr, 1 << 8}),
      Error);
  // Buffer op with empty buffer.
  EXPECT_THROW(rp.execute({mem::CmdKind::kPimGdlOp, {}, BitOp::kOr, 1 << 8}),
               Error);
}

TEST(ReplayStats, CountsCommandClasses) {
  PimRuntime::Options o;
  o.record_commands = true;
  PimRuntime rt(mem::Geometry{}, o);
  const auto a = rt.pim_malloc(1024);
  const auto b = rt.pim_malloc(1024);
  const auto c = rt.pim_malloc(1024);
  rt.pim_op(BitOp::kOr, {a, b}, c);

  mem::MainMemory memory({}, nvm::Tech::kPcm);
  CommandReplayer rp(memory);
  rp.execute_all(rt.commands());
  EXPECT_EQ(rp.stats().activations, 2u);
  EXPECT_EQ(rp.stats().sense_steps, 1u);
  EXPECT_EQ(rp.stats().writebacks, 1u);
  EXPECT_EQ(rp.stats().buffer_ops, 0u);
}

}  // namespace
}  // namespace pinatubo::core
