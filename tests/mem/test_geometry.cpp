#include "mem/geometry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace pinatubo::mem {
namespace {

TEST(Geometry, DefaultMatchesEvaluatedMachine) {
  Geometry g;
  g.validate();
  // Turning point B: full-parallel row group = 2^19 bits.
  EXPECT_EQ(g.row_group_bits(), 1ull << 19);
  // Turning point A: one sensing step = 2^14 bits.
  EXPECT_EQ(g.sense_step_bits(), 1ull << 14);
  // 64 MB per chip-set... rank = chips * banks * subarrays * rows * slice.
  EXPECT_EQ(g.rank_bits(), 1ull << 32);  // 512 MB per rank
  EXPECT_EQ(g.total_bytes(), 1ull << 30);  // 1 GiB machine
}

TEST(Geometry, DerivedQuantities) {
  Geometry g;
  EXPECT_EQ(g.rank_row_bits(), 8192u * 8);
  EXPECT_EQ(g.rows_per_bank(), 64u * 128);
  EXPECT_EQ(g.rows_per_rank(), 64u * 128 * 8);
  EXPECT_EQ(g.total_ranks(), 2u);
}

TEST(Geometry, ValidateCatchesInconsistency) {
  Geometry g;
  g.row_slice_bits = 1001;  // not divisible by 8 MATs
  EXPECT_THROW(g.validate(), Error);
  Geometry g2;
  g2.sa_mux_share = 7;  // row group not divisible
  EXPECT_THROW(g2.validate(), Error);
  Geometry g3;
  g3.channels = 0;
  EXPECT_THROW(g3.validate(), Error);
}

TEST(Geometry, FromConfig) {
  const auto cfg = Config::from_string(
      "geometry.banks = 16\n"
      "geometry.sa_mux_share = 16\n");
  const auto g = geometry_from_config(cfg);
  EXPECT_EQ(g.banks_per_chip, 16u);
  EXPECT_EQ(g.sa_mux_share, 16u);
  EXPECT_EQ(g.channels, 1u);  // default kept
  // Invalid combinations are rejected at construction.
  const auto bad = Config::from_string("geometry.sa_mux_share = 7\n");
  EXPECT_THROW(geometry_from_config(bad), Error);
}

TEST(Geometry, FromConfigRejectsValuesPast32Bits) {
  // Regression: 2^32 + 1 channels used to truncate silently to 1.
  const auto cfg = Config::from_string("geometry.channels = 4294967297\n");
  try {
    geometry_from_config(cfg);
    ADD_FAILURE() << "geometry.channels = 2^32 + 1 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("geometry.channels"),
              std::string::npos)
        << e.what();
  }
}

TEST(Geometry, FromConfigRejectsUnknownKey) {
  // Regression: a typo'd geometry key silently built the default machine.
  const auto cfg = Config::from_string("geometry.bankz = 4\n");
  try {
    geometry_from_config(cfg);
    ADD_FAILURE() << "geometry.bankz was accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'geometry.bankz'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("geometry.banks"), std::string::npos) << msg;
  }
  // Keys outside the section belong to other parsers.
  EXPECT_NO_THROW(geometry_from_config(
      Config::from_string("tech = pcm\nfault.enabled = true\n")));
}

TEST(Geometry, FromConfigReadsDecimal) {
  // Regression: "0200" was octal (128 rows) and "0x80" hex.
  const auto oct = Config::from_string("geometry.rows = 0200\n");
  EXPECT_EQ(geometry_from_config(oct).rows_per_subarray, 200u);
  const auto hex = Config::from_string("geometry.rows = 0x80\n");
  EXPECT_THROW(geometry_from_config(hex), Error);
}

TEST(Geometry, MuxShareScalesSenseStep) {
  Geometry g;
  g.sa_mux_share = 16;
  EXPECT_EQ(g.sense_step_bits(), 1ull << 15);
  g.sa_mux_share = 64;
  EXPECT_EQ(g.sense_step_bits(), 1ull << 13);
}

}  // namespace
}  // namespace pinatubo::mem
