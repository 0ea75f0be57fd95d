// Reproduces Fig. 13: chip area overhead of Pinatubo vs AC-PIM on the PCM
// chip, with the breakdown of Pinatubo's additions.
//
// Expected (paper): Pinatubo ~0.9% total vs AC-PIM ~6.4%; breakdown
// inter-sub 0.72%, inter-bank 0.09%, xor 0.06%, wl act 0.05%,
// and/or 0.02% (intra-sub total 0.13%).
#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "mem/area_model.hpp"

using namespace pinatubo;

int run(const Args&) {
  const mem::AreaModel model(nvm::cell_params(nvm::Tech::kPcm),
                             mem::Geometry{});
  const auto base = model.baseline();
  const auto pin = model.pinatubo_overhead();
  const auto acpim = model.acpim_overhead();

  Table chip("Baseline 64 MB 1T1R PCM chip floorplan (65 nm)");
  chip.set_header({"block", "area (mm^2)", "share"});
  for (const auto& item : base.items)
    chip.add_row({item.name, Table::num(item.area_um2 / 1e6, 4),
                  Table::num(100 * item.area_um2 / base.total_um2(), 3) + "%"});
  chip.add_separator();
  chip.add_row({"total", Table::num(base.total_um2() / 1e6, 4), "100%"});
  chip.print();
  std::printf("\n");

  Table cmp("Fig. 13 (left) — area overhead");
  cmp.set_header({"design", "overhead", "paper"});
  cmp.add_row({"Pinatubo", Table::num(pin.total_percent(), 3) + "%", "0.9%"});
  cmp.add_row({"AC-PIM", Table::num(acpim.total_percent(), 3) + "%", "6.4%"});
  cmp.print();
  std::printf("\n");

  Table brk("Fig. 13 (right) — Pinatubo overhead breakdown");
  brk.set_header({"component", "measured", "paper"});
  const std::pair<const char*, const char*> expect[] = {
      {"inter-sub", "0.72%"}, {"inter-bank", "0.09%"}, {"xor", "0.06%"},
      {"wl act", "0.05%"},    {"and/or", "0.02%"},
  };
  double intra = 0;
  for (const auto& [name, paper] : expect) {
    brk.add_row({name, Table::num(pin.percent(name), 3) + "%", paper});
    if (std::string(name) != "inter-sub" && std::string(name) != "inter-bank")
      intra += pin.percent(name);
  }
  brk.add_separator();
  brk.add_row({"intra-sub total", Table::num(intra, 3) + "%", "0.13%"});
  brk.print();
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
