#include "mem/area_model.hpp"

#include <gtest/gtest.h>

namespace pinatubo::mem {
namespace {

class AreaModelTest : public ::testing::Test {
 protected:
  const nvm::CellParams& pcm_ = nvm::cell_params(nvm::Tech::kPcm);
  AreaModel model_{pcm_, Geometry{}};
};

TEST_F(AreaModelTest, StructureCountsConsistent) {
  EXPECT_EQ(model_.subarrays(), 512u);
  EXPECT_EQ(model_.mats(), 4096u);
  EXPECT_EQ(model_.cols_per_mat(), 1024u);
  EXPECT_EQ(model_.sense_amps(), 131072u);
  // Capacity check: one chip holds 1/(ranks * chips) of the machine.
  const Geometry g;
  EXPECT_EQ(model_.cells(), 1ull << 29);
  EXPECT_EQ(model_.cells() * g.chips_per_rank * g.total_ranks(),
            g.total_bits());
}

TEST_F(AreaModelTest, CellArrayDominatesChip) {
  const auto area = model_.baseline();
  EXPECT_GT(area.find("cell array") / area.total_um2(), 0.7);
}

TEST_F(AreaModelTest, BaselineInPlausibleRange) {
  // A 64 MB 65 nm NVM chip: tens of mm^2.
  const double mm2 = model_.baseline().total_um2() / 1e6;
  EXPECT_GT(mm2, 10.0);
  EXPECT_LT(mm2, 100.0);
}

TEST_F(AreaModelTest, PinatuboOverheadMatchesPaper) {
  // Fig. 13: ~0.9% total.
  const auto o = model_.pinatubo_overhead();
  EXPECT_NEAR(o.total_percent(), 0.9, 0.25);
  // Breakdown ordering: inter-sub >> inter-bank > xor > wl act > and/or.
  EXPECT_GT(o.percent("inter-sub"), o.percent("inter-bank"));
  EXPECT_GT(o.percent("inter-bank"), o.percent("xor"));
  EXPECT_GT(o.percent("xor"), o.percent("wl act"));
  EXPECT_GT(o.percent("wl act"), o.percent("and/or"));
  // Headline splits (paper: 0.72 / 0.09 / 0.06 / 0.05 / 0.02).
  EXPECT_NEAR(o.percent("inter-sub"), 0.72, 0.2);
  EXPECT_NEAR(o.percent("inter-bank"), 0.09, 0.04);
}

TEST_F(AreaModelTest, AcPimOverheadMatchesPaper) {
  // Fig. 13: ~6.4%, dominated by the per-subarray ALUs.
  const auto o = model_.acpim_overhead();
  EXPECT_NEAR(o.total_percent(), 6.4, 1.5);
  EXPECT_GT(o.percent("subarray alus"), 5.0);
}

TEST_F(AreaModelTest, AcPimFarCostlierThanPinatubo) {
  EXPECT_GT(model_.acpim_overhead().total_percent(),
            5.0 * model_.pinatubo_overhead().total_percent());
}

TEST_F(AreaModelTest, OverheadScalesWithStructure) {
  // Doubling banks roughly doubles inter-sub logic area.
  Geometry big;
  big.banks_per_chip = 16;
  AreaModel bigger(pcm_, big);
  EXPECT_EQ(bigger.cells(), 2 * model_.cells());
  const double a = model_.pinatubo_overhead().items[3].area_um2;
  const double b = bigger.pinatubo_overhead().items[3].area_um2;
  EXPECT_NEAR(b / a, 2.0, 1e-9);
}

TEST_F(AreaModelTest, GoldenTotalsAtThreeGeometries) {
  // Exact doubles: the area model is pure arithmetic on the structure, so
  // any change to a count or an F^2 constant moves these bits.
  struct Golden {
    unsigned mux, subarrays, rows;
    double base_um2, pin_percent, acpim_percent;
  };
  for (const Golden& g :
       {Golden{32, 64, 128, 29961567.692800004, 0.94040271433363276,
               6.4297683343950762},
        Golden{64, 64, 128, 29518544.332800005, 0.92449995353180081,
               6.5262682681116626},
        Golden{32, 32, 256, 29465381.529600002, 0.91597798171685163,
               3.6813200837407427}}) {
    Geometry geo;
    geo.sa_mux_share = g.mux;
    geo.subarrays_per_bank = g.subarrays;
    geo.rows_per_subarray = g.rows;
    const AreaModel m(pcm_, geo);
    EXPECT_EQ(m.baseline().total_um2(), g.base_um2);
    EXPECT_EQ(m.pinatubo_overhead().total_percent(), g.pin_percent);
    EXPECT_EQ(m.acpim_overhead().total_percent(), g.acpim_percent);
  }
}

}  // namespace
}  // namespace pinatubo::mem
