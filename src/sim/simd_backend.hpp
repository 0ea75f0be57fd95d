// The conventional computing-centric baseline: every operand bit crosses
// the bus, walks the cache hierarchy, and meets the ALU (paper Fig. 2a).
#pragma once

#include "sim/backend.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::sim {

class SimdBackend final : public Backend {
 public:
  explicit SimdBackend(MemKind mem);

  std::string name() const override;
  BackendResult execute(const OpTrace& trace) override;

  const SimdCpuModel& cpu() const { return cpu_; }

 private:
  SimdCpuModel cpu_;
};

}  // namespace pinatubo::sim
