// Ablation: NVM technology.  The paper evaluates 1T1R PCM but claims
// Pinatubo "does not rely on a certain NVM technology"; this prices the
// same sequential multi-row OR workload on PCM / STT-MRAM / ReRAM with
// each technology's derived row limit, write energetics, and margins.
#include <cstdio>
#include <vector>

#include "circuit/margin.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "pinatubo/backend.hpp"
#include "sim/backend.hpp"

using namespace pinatubo;

int run(const Args&) {
  // One 128-operand OR over full row groups, sequential placements.
  sim::OpTrace trace;
  trace.name = "128-seq-or";
  for (std::uint64_t i = 0; i < 8; ++i) {
    sim::TraceOp op;
    op.op = BitOp::kOr;
    op.bits = 1ull << 19;
    for (std::uint64_t k = 0; k < 128; ++k) op.srcs.push_back(i * 128 + k);
    op.dst = op.srcs.back();
    trace.ops.push_back(op);
  }

  Table t("Ablation — NVM technology (8x 128-operand OR over 2^19 bits)");
  t.set_header({"tech", "max OR rows", "ON/OFF", "time", "energy",
                "write pJ/bit (SET/RESET)"});
  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam}) {
    core::PinatuboBackend pin({}, {tech, 128});
    const auto r = pin.execute(trace);
    const auto& cell = nvm::cell_params(tech);
    t.add_row({nvm::to_string(tech),
               std::to_string(circuit::derived_max_or_rows(tech)),
               Table::num(cell.on_off_ratio(), 4),
               pinatubo::units::format_time(r.bitwise.time_ns),
               pinatubo::units::format_energy(r.bitwise.energy.total_pj()),
               Table::num(cell.set_energy_pj, 3) + "/" +
                   Table::num(cell.reset_energy_pj, 3)});
  }
  t.add_note("STT-MRAM's low ON/OFF ratio forces 2-row chains (127 steps");
  t.add_note("per op) but its cheap, fast writes soften the energy blow");
  t.print();
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
