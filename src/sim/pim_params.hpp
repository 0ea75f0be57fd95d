// Parameters shared by the in-memory computing backends.
//
// The global-row-buffer datapath (GDL streaming + digital logic + latches)
// is used both by AC-PIM (for *every* op) and by Pinatubo (for inter-
// subarray / inter-bank ops only), so its constants live here and both
// backends price it identically — the architectural difference, not the
// constants, must explain the results.
//
// The DRAM constants price S-DRAM's charge-sharing primitives (RowClone
// AAP and triple-row activation), following the published mechanism.
#pragma once

#include <cstdint>

#include "mem/geometry.hpp"
#include "mem/timing.hpp"

namespace pinatubo::sim {

/// Global-row-buffer op path (per rank-row step).
struct BufferPathParams {
  double gdl_beat_bits = 64;      ///< internal dataline width per chip
  double gdl_clk_ns = 1.25;       ///< internal bus clock
  double gdl_pj_per_bit = 2.0;    ///< long global wires (65 nm, full die)
  double logic_pj_per_bit = 1.0;  ///< synthesized wide ALU evaluate
  double latch_pj_per_bit = 0.1;  ///< row buffer capture

  /// Per-bank GDL streaming time for `cols` column stripes (chips and
  /// banks in parallel, one stripe's share of a row slice per chip-bank).
  double stream_ns(const mem::Geometry& g, std::uint64_t cols) const {
    const double bits_per_chip_bank =
        static_cast<double>(g.sense_step_bits()) /
        (g.banks_per_chip * g.chips_per_rank);
    const double beats = bits_per_chip_bank / gdl_beat_bits;
    return static_cast<double>(cols) * beats * gdl_clk_ns;
  }
};

/// DRAM array energetics for the S-DRAM backend (DDR3, 65 nm class).
struct DramArrayParams {
  double act_pj_per_bit = 0.31;  ///< full-row activate+precharge, per bit
  double tra_row_factor = 3.0;   ///< triple-row activation opens 3 rows
  /// An AAP (ACT-ACT-PRE RowClone hop) costs two activations.
  double aap_ns(const mem::TimingParams& t) const {
    return t.t_ras_ns + t.t_rp_ns;
  }
};

}  // namespace pinatubo::sim
