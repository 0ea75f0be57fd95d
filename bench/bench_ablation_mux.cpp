// Ablation: sense-amplifier sharing (column MUX) width.  The paper's NVM
// point is 32 columns per SA (turning point A at 2^14); this sweeps the
// MUX 8..64 and shows where point A moves and what peak OR throughput and
// SA area do — the density/latency trade the SA sharing embodies.
#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "mem/area_model.hpp"
#include "pinatubo/backend.hpp"

using namespace pinatubo;

int run(const Args&) {
  Table t("Ablation — SA column-MUX sharing");
  t.set_header({"mux", "sense step bits", "128-row OR @2^19", "GBps",
                "point A at 2^", "SA area mm^2"});
  for (const unsigned mux : {8u, 16u, 32u, 64u}) {
    mem::Geometry geo;
    geo.sa_mux_share = mux;
    core::PinatuboBackend pin(geo, {nvm::Tech::kPcm, 128});
    std::vector<std::uint64_t> ids;
    for (unsigned k = 0; k < 128; ++k) ids.push_back(k);
    const auto cost =
        pin.op_cost(BitOp::kOr, ids, 127, 1ull << 19, false, 0.5);
    const double gbps = 128.0 * 65536.0 / cost.time_ns;

    const mem::AreaModel area(nvm::cell_params(nvm::Tech::kPcm), geo);
    const double sa_mm2 = area.baseline().find("sense amps") / 1e6;

    t.add_row({std::to_string(mux),
               std::to_string(geo.sense_step_bits()),
               pinatubo::units::format_time(cost.time_ns), Table::num(gbps, 4),
               std::to_string(63 - __builtin_clzll(geo.sense_step_bits())),
               Table::num(sa_mm2, 4)});
  }
  t.add_note("narrower MUX = faster ops but proportionally more SA area;");
  t.add_note("the paper's NVM design point is 32 (large current-sense SAs)");
  t.print();
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
