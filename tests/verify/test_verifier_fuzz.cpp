// Verifier fuzz: every legal plan the stack can generate must verify
// clean.  Random op streams across technologies, ops, row caps, thread
// counts, and fault campaigns (whose
// recovery ladders inject retry/de-escalation/remap steps) all run with
// `verify.level = always` — the runtime throws on the first diagnostic, so
// a single false positive fails the trial loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/driver.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"
#include "reliability/policy.hpp"
#include "verify/verifier.hpp"

namespace pinatubo {
namespace {

using core::PimRuntime;

const nvm::Tech kTechs[] = {nvm::Tech::kPcm, nvm::Tech::kReRam,
                            nvm::Tech::kSttMram};

/// Random op stream through the live runtime with the verifier always-on.
void run_runtime_trial(std::uint64_t trial, bool faults) {
  Rng cfg_rng(2000 + trial);
  ThreadPool::set_global_threads(1 + cfg_rng.next() % 4);
  PimRuntime::Options opts;
  opts.tech = kTechs[cfg_rng.next() % 3];
  opts.max_rows = (cfg_rng.next() % 2) ? 128 : 2;
  opts.reliability.verify.level = reliability::VerifyLevel::kAlways;
  if (faults) {
    opts.reliability.fault.enabled = true;
    opts.reliability.fault.seed = cfg_rng.next();
    opts.reliability.fault.sense_ber = (cfg_rng.next() % 2) ? 1e-4 : 0.0;
    opts.reliability.fault.stuck_rate = (cfg_rng.next() % 2) ? 1e-7 : 0.0;
    if (cfg_rng.next() % 2) {
      opts.reliability.fault.endurance_cycles = 30;
      opts.reliability.fault.wearout_rate = 0.02;
    }
    opts.reliability.verify.sense = reliability::SenseVerify::kReadback;
    opts.reliability.verify.writes = reliability::WriteVerify::kReadback;
    opts.reliability.retry.max_resense =
        static_cast<unsigned>(cfg_rng.next() % 3);
    opts.reliability.retry.spare_rows = 16;
  }
  PimRuntime pim({}, opts);
  ASSERT_NE(pim.verifier(), nullptr);

  const std::uint64_t bits = pim.geometry().sense_step_bits();
  const std::size_t n_vecs = 8;
  Rng rng(700 + trial);
  std::vector<PimRuntime::Handle> vecs(n_vecs);
  for (std::size_t i = 0; i < n_vecs; ++i) {
    vecs[i] = pim.pim_malloc(bits);
    pim.pim_write(vecs[i], BitVector::random(bits, 0.3, rng));
  }
  const unsigned n_ops = 24;
  const bool batched = (cfg_rng.next() % 2) != 0;
  for (unsigned it = 0; it < n_ops; ++it) {
    if (batched && it % 6 == 0) pim.pim_begin();
    const unsigned pick = static_cast<unsigned>(rng.next() % 8);
    BitOp op = BitOp::kOr;
    std::size_t fan = 2 + rng.next() % 5;
    if (pick == 5) op = BitOp::kAnd, fan = 2;
    if (pick == 6) op = BitOp::kXor, fan = 2;
    if (pick == 7) op = BitOp::kInv, fan = 1;
    std::vector<std::size_t> idx(n_vecs);
    for (std::size_t i = 0; i < n_vecs; ++i) idx[i] = i;
    for (std::size_t i = 0; i < fan; ++i)
      std::swap(idx[i], idx[i + rng.next() % (n_vecs - i)]);
    std::vector<PimRuntime::Handle> srcs;
    for (std::size_t i = 0; i < fan; ++i) srcs.push_back(vecs[idx[i]]);
    const bool host_read = (rng.next() % 4) == 0;
    // Throws (fails the test) if any pass rejects a generated plan or the
    // engine's schedule for it.
    ASSERT_NO_THROW(
        pim.pim_op(op, srcs, vecs[idx[rng.next() % fan]], host_read));
    if (batched && (it % 6 == 5 || it + 1 == n_ops)) pim.pim_barrier();
  }
  ThreadPool::set_global_threads(0);
}

TEST(VerifierFuzz, LegalRuntimePlansAlwaysVerify) {
  for (std::uint64_t trial = 0; trial < 8; ++trial)
    run_runtime_trial(trial, /*faults=*/false);
}

TEST(VerifierFuzz, FaultCampaignRecoveryPlansAlwaysVerify) {
  // Recovery ladders inject retry / de-escalation / verify / remap steps;
  // each must carry full metadata or the hazard pass rejects the batch.
  for (std::uint64_t trial = 0; trial < 8; ++trial)
    run_runtime_trial(trial, /*faults=*/true);
}

TEST(VerifierFuzz, RandomVirtualBatchesAlwaysVerify) {
  // Scheduler + engine without a live runtime (the backend path): random
  // batches of virtually placed ops across techs / caps / serial modes.
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    Rng rng(3000 + trial);
    const mem::Geometry geo;
    const nvm::Tech tech = kTechs[rng.next() % 3];
    const unsigned cap = (rng.next() % 2) ? 128 : 2;
    const bool serial = (rng.next() % 2) != 0;
    core::RowAllocator alloc(geo, core::AllocPolicy::kPimAware);
    core::OpScheduler sched(geo, core::SchedulerConfig{cap, tech});
    const core::PinatuboCostModel model(geo, tech, 0.5);
    const std::uint64_t bits =
        geo.sense_step_bits() << (rng.next() % 4);  // 1-8 column stripes
    std::vector<core::OpPlan> plans;
    const unsigned n_ops = 1 + rng.next() % 10;
    for (unsigned i = 0; i < n_ops; ++i) {
      const unsigned pick = static_cast<unsigned>(rng.next() % 8);
      BitOp op = BitOp::kOr;
      std::size_t fan = 2 + rng.next() % 6;
      if (pick == 5) op = BitOp::kAnd, fan = 2;
      if (pick == 6) op = BitOp::kXor, fan = 2;
      if (pick == 7) op = BitOp::kInv, fan = 1;
      std::vector<core::Placement> srcs;
      for (std::size_t s = 0; s < fan; ++s)
        srcs.push_back(alloc.virtual_placement(rng.next() % 32, bits));
      const auto dst = alloc.virtual_placement(rng.next() % 32, bits);
      plans.push_back(sched.plan(op, srcs, dst, (rng.next() % 3) == 0));
    }
    const core::ExecutionEngine engine(model, core::EngineOptions{serial});
    const auto result = engine.run(plans);
    const verify::Verifier verifier(model, cap);
    const verify::Report rep = verifier.check(plans, result, serial);
    EXPECT_TRUE(rep.ok()) << "trial " << trial << ":\n" << rep.to_string();
  }
}

}  // namespace
}  // namespace pinatubo
