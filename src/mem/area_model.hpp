// NVSim-style chip area model and the Fig. 13 overhead analysis.
//
// Builds a 65 nm NVM chip floorplan from structural counts (cells, sense
// amplifiers, wordline drivers, buffers) and per-instance areas expressed in
// F^2.  On top of the baseline chip it prices the Pinatubo additions
// (AND/OR reference branches, XOR capacitor+gates, LWL latch transistors,
// WD bypass, inter-subarray and inter-bank logic) and the AC-PIM
// alternative (full digital ALUs at every subarray row buffer).
//
// Per-instance F^2 constants for the digital add-ons are calibrated to the
// paper's 65 nm synthesis results; the structural counts come from one
// chip of the memory `Geometry`, so changing the organization changes the
// percentages the way a floorplanner would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/geometry.hpp"
#include "nvm/technology.hpp"

namespace pinatubo::mem {

/// One named area contribution (um^2).
struct AreaItem {
  std::string name;
  double area_um2;
};

/// Baseline chip floorplan.
struct ChipArea {
  std::vector<AreaItem> items;
  double total_um2() const;
  double find(const std::string& name) const;  ///< 0 if absent
};

/// Add-on breakdown; percentages are relative to the baseline chip.
struct OverheadBreakdown {
  std::vector<AreaItem> items;
  double baseline_um2 = 0;
  double total_um2() const;
  double total_percent() const { return 100.0 * total_um2() / baseline_um2; }
  double percent(const std::string& name) const;
};

class AreaModel {
 public:
  /// One chip of `geo` (the default Geometry is the evaluated 64 MB 1T1R
  /// chip: 8 banks x 64 subarrays x 128 rows x 8 Kb row slice).
  AreaModel(const nvm::CellParams& cell, const Geometry& geo);

  /// Unmodified NVM chip floorplan.
  ChipArea baseline() const;
  /// Pinatubo circuit additions (Fig. 13 right).
  OverheadBreakdown pinatubo_overhead() const;
  /// AC-PIM: digital ALUs at every subarray plus the same global logic.
  OverheadBreakdown acpim_overhead() const;

  // Structural counts per chip, derived from the geometry in 64 bits.
  std::uint64_t cells() const {
    return subarrays() * geo_.rows_per_subarray * geo_.row_slice_bits;
  }
  std::uint64_t subarrays() const {
    return static_cast<std::uint64_t>(geo_.banks_per_chip) *
           geo_.subarrays_per_bank;
  }
  std::uint64_t mats() const { return subarrays() * geo_.mats_per_subarray; }
  std::uint64_t cols_per_mat() const {
    return geo_.row_slice_bits / geo_.mats_per_subarray;
  }
  std::uint64_t sense_amps() const {
    return mats() * cols_per_mat() / geo_.sa_mux_share;
  }
  std::uint64_t lwl_drivers() const {
    return subarrays() * geo_.rows_per_subarray * geo_.mats_per_subarray;
  }

 private:
  const nvm::CellParams* cell_;
  Geometry geo_;

  /// F^2 in um^2 at the 65 nm node of the evaluated chip.
  static constexpr double kFeatureNm = 65.0;
  static constexpr double kF2Um2 = (kFeatureNm * 1e-3) * (kFeatureNm * 1e-3);

  // Baseline per-instance areas (F^2).
  static constexpr double kSenseAmpF2 = 1200;    // current-sampling CSA
  static constexpr double kWriteDriverF2 = 400;
  static constexpr double kLwlDriverF2 = 15;
  static constexpr double kColMuxF2PerBl = 6;
  static constexpr double kRowBufF2PerBit = 60;  // global row buffer latch
  // Fixed blocks (um^2): global decoders/routing, IO pads, control.
  static constexpr double kGlobalFixedUm2 = 1.0e6;
  static constexpr double kIoFixedUm2 = 0.5e6;
  static constexpr double kCtrlFixedUm2 = 0.2e6;

  // Pinatubo add-ons.
  static constexpr double kRefBranchesF2PerMat = 347;  // AND/OR refs, shared
  static constexpr double kXorF2PerSa = 32;            // Ch cap + 2T + mux
  static constexpr double kLwlLatchF2 = 6.8;           // 2 small transistors
  static constexpr double kInterLogicF2PerBit = 780;   // synthesized unit
  // AC-PIM per-subarray digital ALU datapath.
  static constexpr double kAcpimF2PerBit = 95;
};

}  // namespace pinatubo::mem
