// Ablation: subarray height.  Taller subarrays amortize periphery (fewer
// SAs and drivers per bit) but lengthen the bitlines the cells must drive
// — the physics behind the evaluated 128-row subarray.  Timing comes from
// the first-principles latency model (validated against the paper's
// 18.3-8.9-151.1 ns triplet at 128 rows); throughput re-prices the
// 128-row OR under each derived triplet.
#include <cstdio>

#include "circuit/latency_model.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "mem/area_model.hpp"
#include "mem/timing.hpp"
#include "pinatubo/cost_model.hpp"

using namespace pinatubo;

int run(const Args&) {
  const circuit::LatencyModel model(nvm::cell_params(nvm::Tech::kPcm));
  // One 128-row OR over a full row group: 32 column stripes, written back.
  core::PlanStep or128;
  or128.rows = 128;
  or128.col_steps = 32;
  const double cmds =
      static_cast<double>(
          core::PinatuboCostModel({}, nvm::Tech::kPcm).command_count(or128)) *
      mem::ddr3_1600_bus().cmd_slot_ns;

  Table t("Ablation — subarray height (derived timing, PCM)");
  t.set_header({"rows", "tRCD ns", "tCL ns", "tWR ns", "128-row OR @2^19",
                "periphery mm^2"});
  for (const unsigned rows : {64u, 128u, 256u, 512u}) {
    const auto d = model.derive(rows, 1024);
    // The same OR under this triplet: cmds + tRCD + 31*tCL + tWR (see
    // PinatuboCostModel::step_cost).
    const double op_ns = cmds + d.t_rcd_ns + 31 * d.t_cl_ns + d.t_wr_ns;

    mem::Geometry geo;  // constant capacity: trade rows vs subarrays
    geo.rows_per_subarray = rows;
    geo.subarrays_per_bank = 64 * 128 / rows;
    const mem::AreaModel area(nvm::cell_params(nvm::Tech::kPcm), geo);
    const auto base = area.baseline();
    const double periphery =
        (base.total_um2() - base.find("cell array")) / 1e6;

    t.add_row({std::to_string(rows), Table::num(d.t_rcd_ns, 4),
               Table::num(d.t_cl_ns, 4), Table::num(d.t_wr_ns, 4),
               Table::num(op_ns, 4) + " ns", Table::num(periphery, 4)});
  }
  t.add_note("paper's design point: 128 rows -> 18.3-8.9-151.1 ns (CACTI)");
  t.add_note("derived at 128 rows: see tests/circuit/test_latency_model.cpp");
  t.print();
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
