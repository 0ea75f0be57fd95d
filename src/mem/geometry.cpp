#include "mem/geometry.hpp"

#include "common/error.hpp"

namespace pinatubo::mem {

void Geometry::validate() const {
  PIN_CHECK(channels >= 1);
  PIN_CHECK(ranks_per_channel >= 1);
  PIN_CHECK(chips_per_rank >= 1);
  PIN_CHECK(banks_per_chip >= 1);
  PIN_CHECK(subarrays_per_bank >= 1);
  PIN_CHECK(mats_per_subarray >= 1);
  PIN_CHECK(rows_per_subarray >= 1);
  PIN_CHECK(row_slice_bits >= 8);
  PIN_CHECK(sa_mux_share >= 1);
  PIN_CHECK_MSG(row_slice_bits % mats_per_subarray == 0,
                "row slice must split evenly over MATs");
  PIN_CHECK_MSG(row_group_bits() % sa_mux_share == 0,
                "row group must split evenly over sense steps");
  PIN_CHECK_MSG(rank_row_bits() % 8 == 0, "rank row must be byte aligned");
}

Geometry geometry_from_config(const Config& cfg) {
  static const std::vector<std::string> kKeys = {
      "geometry.channels", "geometry.ranks",          "geometry.chips",
      "geometry.banks",    "geometry.subarrays",      "geometry.mats",
      "geometry.rows",     "geometry.row_slice_bits", "geometry.sa_mux_share"};
  cfg.check_keys("geometry", kKeys, [](const std::string& key) {
    return key.rfind("geometry.", 0) == 0;
  });
  Geometry g;
  g.channels = cfg.get_u32("geometry.channels", g.channels);
  g.ranks_per_channel = cfg.get_u32("geometry.ranks", g.ranks_per_channel);
  g.chips_per_rank = cfg.get_u32("geometry.chips", g.chips_per_rank);
  g.banks_per_chip = cfg.get_u32("geometry.banks", g.banks_per_chip);
  g.subarrays_per_bank =
      cfg.get_u32("geometry.subarrays", g.subarrays_per_bank);
  g.mats_per_subarray = cfg.get_u32("geometry.mats", g.mats_per_subarray);
  g.rows_per_subarray = cfg.get_u32("geometry.rows", g.rows_per_subarray);
  g.row_slice_bits = cfg.get_u64("geometry.row_slice_bits", g.row_slice_bits);
  g.sa_mux_share = cfg.get_u32("geometry.sa_mux_share", g.sa_mux_share);
  g.validate();
  return g;
}

}  // namespace pinatubo::mem
