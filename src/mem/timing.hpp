// Memory timing parameter sets.
//
// PCM numbers are the paper's quoted CACTI-3DD triplet
// (tRCD-tCL-tWR = 18.3-8.9-151.1 ns); DRAM numbers are standard DDR3-1600.
// The DDR3-1600 channel carries commands in 1.25 ns slots (800 MHz command
// clock) and moves data at 12.8 GB/s per channel; its I/O energy per bit
// is a bus property too.
#pragma once

#include <cstdint>

namespace pinatubo::mem {

/// Array timing; the command-bus slot is a channel property (BusParams).
struct TimingParams {
  double t_rcd_ns;   ///< activate -> first data sense complete
  double t_cl_ns;    ///< additional column (sense) step
  double t_wr_ns;    ///< row write / write recovery
  double t_rp_ns;    ///< precharge
  double t_ras_ns;   ///< min activate-to-precharge
};

/// Channel (bus) characteristics.
struct BusParams {
  double cmd_slot_ns = 1.25;   ///< command issue granularity
  double data_gbps = 12.8;     ///< peak data bandwidth per channel (GB/s)

  /// Off-chip DDR3 transfer energy (I/O drivers, termination), per bit.
  static constexpr double kIoPjPerBit = 18.0;
  double io_pj(std::uint64_t bits) const {
    return static_cast<double>(bits) * kIoPjPerBit;
  }
};

/// 1T1R PCM main memory (paper §6.1).
constexpr TimingParams pcm_timing() {
  return {18.3, 8.9, 151.1, 5.0, 25.0};
}

/// 65 nm DDR3-1600 DRAM (the S-DRAM substrate).
constexpr TimingParams dram_timing() {
  return {13.75, 13.75, 15.0, 13.75, 35.0};
}

constexpr BusParams ddr3_1600_bus() { return {}; }

}  // namespace pinatubo::mem
