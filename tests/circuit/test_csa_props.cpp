// Property sweep: the transient CSA must agree with the behavioural
// decision across technologies, ops and adversarial operand patterns —
// the two fidelity levels of the same amplifier cannot diverge.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "circuit/csa.hpp"
#include "nvm/cell.hpp"

namespace pinatubo::circuit {
namespace {

class CsaAgreement
    : public ::testing::TestWithParam<std::tuple<nvm::Tech, unsigned>> {};

TEST_P(CsaAgreement, TransientMatchesBehavioural) {
  const auto [tech, n] = GetParam();
  const auto& cell = nvm::cell_params(tech);
  const CsaModel csa;
  const auto ref = op_reference(cell, BitOp::kOr, n);
  const nvm::BitlineModel bl(cell);

  // Adversarial patterns: all zeros, exactly one 1, all ones.
  for (const std::size_t ones : {std::size_t{0}, std::size_t{1},
                                 static_cast<std::size_t>(n)}) {
    const double i_bl = bl.nominal_current_a(ones, n);
    const auto tr = csa.sense_transient(i_bl, ref.i_ref_a);
    EXPECT_EQ(tr.output, csa.decide(i_bl, ref.i_ref_a, nullptr))
        << nvm::to_string(tech) << " n=" << n << " ones=" << ones;
    EXPECT_EQ(tr.output, ones > 0);
    // The latch must regenerate to a solid margin.
    EXPECT_GT(tr.margin_v, 0.5 * csa.config().vdd_v);
    EXPECT_GT(tr.resolve_time_ns, 0.0);
    // And resolve within the three configured phases.
    EXPECT_LE(tr.resolve_time_ns,
              csa.config().t_sample_ns + csa.config().t_amplify_ns +
                  csa.config().t_latch_ns + 1e-9);
  }
}

/// The (technology, rows) OR shapes the CSA can sense at all; the others
/// have no reference to agree with.
std::vector<std::tuple<nvm::Tech, unsigned>> supported_shapes() {
  const CsaModel csa;
  std::vector<std::tuple<nvm::Tech, unsigned>> out;
  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam})
    for (const unsigned n : {2u, 4u, 16u, 64u, 128u})
      if (csa.supports(BitOp::kOr, n, nvm::cell_params(tech)))
        out.emplace_back(tech, n);
  return out;
}

INSTANTIATE_TEST_SUITE_P(TechAndRows, CsaAgreement,
                         ::testing::ValuesIn(supported_shapes()));

TEST(CsaResolveTime, ScalesWithConfiguredPhases) {
  CsaConfig slow;
  slow.t_amplify_ns = 6.0;
  const CsaModel fast, slower(slow);
  const auto a = fast.sense_transient(20e-6, 10e-6);
  const auto b = slower.sense_transient(20e-6, 10e-6);
  EXPECT_GT(b.resolve_time_ns, a.resolve_time_ns);
}

}  // namespace
}  // namespace pinatubo::circuit
