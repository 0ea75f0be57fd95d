#include "mem/energy.hpp"

#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"

namespace pinatubo::mem {
namespace {

constexpr const char* kNames[] = {
    "acpim.logic",  "acpim.read",       "acpim.write",     "bus.io",
    "cpu.L1",       "cpu.L2",           "cpu.L3",          "cpu.core",
    "ctrl.cmd",     "dram.act",         "mem.read",        "mem.write",
    "pim.activate", "pim.buffer.logic", "pim.buffer.read", "pim.buffer.wb",
    "pim.sense",    "pim.write",
};
static_assert(std::size(kNames) == kEnergyComponents);

}  // namespace

const char* to_string(Energy component) {
  const auto i = static_cast<std::size_t>(component);
  PIN_CHECK(i < kEnergyComponents);
  return kNames[i];
}

void EnergyCounter::add(Energy component, double pj) {
  PIN_CHECK_MSG(pj >= 0.0,
                mem::to_string(component) << " energy " << pj << " < 0");
  parts_[static_cast<std::size_t>(component)] += pj;
}

void EnergyCounter::merge(const EnergyCounter& other) {
  for (std::size_t i = 0; i < kEnergyComponents; ++i)
    parts_[i] += other.parts_[i];
}

double EnergyCounter::total_pj() const {
  double t = 0;
  for (const double v : parts_) t += v;
  return t;
}

std::string EnergyCounter::to_string() const {
  std::ostringstream os;
  os << "total " << units::format_energy(total_pj());
  for (std::size_t i = 0; i < kEnergyComponents; ++i)
    if (parts_[i] != 0.0)
      os << "; " << kNames[i] << ' ' << units::format_energy(parts_[i]);
  return os.str();
}

}  // namespace pinatubo::mem
