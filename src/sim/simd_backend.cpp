#include "sim/simd_backend.hpp"

namespace pinatubo::sim {

SimdBackend::SimdBackend(MemKind mem) : cpu_({}, mem) {}

std::string SimdBackend::name() const {
  return std::string("SIMD-") + to_string(cpu_.mem_kind());
}

BackendResult SimdBackend::execute(const OpTrace& trace) {
  cpu_.reset();
  BackendResult result;
  for (const auto& op : trace.ops) result.bitwise += cpu_.bulk_op(op);
  result.scalar = cpu_.scalar(trace.scalar_ops, trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::sim
