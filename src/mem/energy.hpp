// Energy/time accounting shared by every backend.
//
// `EnergyCounter` accumulates named picojoule components so reports can show
// where the energy went (activation vs sensing vs writes vs bus vs CPU).
// `Cost` is the (time, energy) pair each backend returns per op or workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pinatubo::mem {

class EnergyCounter {
 public:
  void add(const std::string& component, double pj);
  void merge(const EnergyCounter& other);
  double total_pj() const;
  double get(const std::string& component) const;  ///< 0 if absent
  std::string to_string() const;

 private:
  std::map<std::string, double> parts_;
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

}  // namespace pinatubo::mem
