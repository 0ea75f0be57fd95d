#include "nvm/cell.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::nvm {
namespace {

TEST(Cell, NominalResistanceByValue) {
  const auto& p = cell_params(Tech::kPcm);
  EXPECT_DOUBLE_EQ(nominal_resistance(p, true), p.r_low_ohm);
  EXPECT_DOUBLE_EQ(nominal_resistance(p, false), p.r_high_ohm);
}

TEST(Cell, SampledResistanceMedianNearNominal) {
  const auto& p = cell_params(Tech::kPcm);
  Rng rng(1);
  std::vector<double> lo, hi;
  for (int i = 0; i < 4001; ++i) {
    lo.push_back(sample_resistance(p, true, rng));
    hi.push_back(sample_resistance(p, false, rng));
  }
  std::nth_element(lo.begin(), lo.begin() + 2000, lo.end());
  std::nth_element(hi.begin(), hi.begin() + 2000, hi.end());
  EXPECT_NEAR(lo[2000] / p.r_low_ohm, 1.0, 0.05);
  EXPECT_NEAR(hi[2000] / p.r_high_ohm, 1.0, 0.05);
}

TEST(Cell, ParallelResistance) {
  const double rs[] = {100.0, 100.0};
  EXPECT_DOUBLE_EQ(parallel_resistance(rs), 50.0);
  const double one[] = {42.0};
  EXPECT_DOUBLE_EQ(parallel_resistance(one), 42.0);
  const double mixed[] = {10e3, 1e6};
  EXPECT_NEAR(parallel_resistance(mixed), 9900.99, 0.01);
}

TEST(Cell, ParallelRejectsBadInput) {
  EXPECT_THROW(parallel_resistance({}), Error);
  const double bad[] = {10.0, -1.0};
  EXPECT_THROW(parallel_resistance(bad), Error);
}

TEST(Cell, BitlineConductanceAdds) {
  const double rs[] = {1e3, 1e3, 1e3};
  EXPECT_NEAR(bitline_conductance(rs), 3e-3, 1e-12);
}

TEST(BitlineModel, NominalCurrentMatchesFormula) {
  const auto& p = cell_params(Tech::kPcm);
  BitlineModel bl(p);
  // 1 one + 2 zeros.
  const double expect =
      p.read_voltage_v * (1.0 / p.r_low_ohm + 2.0 / p.r_high_ohm);
  EXPECT_NEAR(bl.nominal_current_a(1, 3), expect, 1e-15);
  const std::vector<bool> bits{true, false, false};
  EXPECT_NEAR(bl.nominal_current_a(bits), expect, 1e-15);
}

TEST(BitlineModel, CurrentMonotoneInOnes) {
  const auto& p = cell_params(Tech::kPcm);
  BitlineModel bl(p);
  double prev = 0.0;
  for (std::size_t ones = 0; ones <= 8; ++ones) {
    const double i = bl.nominal_current_a(ones, 8);
    EXPECT_GT(i, prev);
    prev = i;
  }
}

TEST(BitlineModel, SampledCurrentTracksNominal) {
  const auto& p = cell_params(Tech::kSttMram);
  BitlineModel bl(p);
  Rng rng(3);
  const std::vector<bool> bits{true, false};
  constexpr int kSamples = 2000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += bl.sampled_current_a(bits, rng);
  EXPECT_NEAR(sum / kSamples / bl.nominal_current_a(bits), 1.0, 0.05);
}

TEST(BitlineModel, RejectsEmpty) {
  BitlineModel bl(cell_params(Tech::kPcm));
  Rng rng(4);
  EXPECT_THROW(bl.nominal_current_a({}), Error);
  EXPECT_THROW(bl.sampled_current_a({}, rng), Error);
  EXPECT_THROW(bl.nominal_current_a(1, 0), Error);
  EXPECT_THROW(bl.nominal_current_a(3, 2), Error);
}

}  // namespace
}  // namespace pinatubo::nvm
