// Energy/time accounting shared by every backend.
//
// `EnergyCounter` accumulates picojoules per component so reports can show
// where the energy went (activation vs sensing vs writes vs bus vs CPU).
// The components form a closed set, so the counter is a fixed array and
// pricing never allocates.
// `Cost` is the (time, energy) pair each backend returns per op or workload.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>  // EnergyCounter::to_string only
#include <type_traits>

namespace pinatubo::mem {

/// Every energy component a backend reports, enumerated in byte-wise order
/// of its name.  total_pj() sums in this order, and floating-point sums
/// depend on it: the recorded ledgers (BENCH_headline.json, perfbench's
/// machine record) were summed in name order.  A new component must be
/// inserted at its name's sorted position.
enum class Energy : std::uint8_t {
  kAcpimLogic,      ///< acpim.logic
  kAcpimRead,       ///< acpim.read
  kAcpimWrite,      ///< acpim.write
  kBusIo,           ///< bus.io
  kCpuL1,           ///< cpu.L1
  kCpuL2,           ///< cpu.L2
  kCpuL3,           ///< cpu.L3
  kCpuCore,         ///< cpu.core
  kCtrlCmd,         ///< ctrl.cmd
  kDramAct,         ///< dram.act
  kMemRead,         ///< mem.read
  kMemWrite,        ///< mem.write
  kPimActivate,     ///< pim.activate
  kPimBufferLogic,  ///< pim.buffer.logic
  kPimBufferRead,   ///< pim.buffer.read
  kPimBufferWb,     ///< pim.buffer.wb
  kPimSense,        ///< pim.sense
  kPimWrite,        ///< pim.write
};

inline constexpr std::size_t kEnergyComponents =
    static_cast<std::size_t>(Energy::kPimWrite) + 1;

/// The component's dotted name, e.g. "pim.sense".
const char* to_string(Energy component);

class EnergyCounter {
 public:
  void add(Energy component, double pj);
  void merge(const EnergyCounter& other);
  double total_pj() const;
  double get(Energy component) const {  ///< 0 if never added
    return parts_[static_cast<std::size_t>(component)];
  }
  /// "total <E>; <name> <E>; ..." over the nonzero components, in name order.
  std::string to_string() const;

 private:
  std::array<double, kEnergyComponents> parts_{};
};

/// The unit of comparison across backends.
struct Cost {
  double time_ns = 0.0;
  EnergyCounter energy;

  /// Serial composition: times add.
  Cost& operator+=(const Cost& o) {
    time_ns += o.time_ns;
    energy.merge(o.energy);
    return *this;
  }
};

static_assert(std::is_trivially_copyable_v<Cost>);

}  // namespace pinatubo::mem
