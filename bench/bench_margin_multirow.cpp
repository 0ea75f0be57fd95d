// Reproduces the paper's §4.2 multi-row limits: "maximal 128-row
// operations for PCM [and ReRAM] ... for STT-MRAM, since the ON/OFF ratio
// is already low, we conservatively assume maximal 2-row operation", and
// footnote 3: multi-row AND is not supported beyond 2 rows.
//
// Derived here, not asserted: the analytic boundary-ratio sweep plus a
// Monte-Carlo yield analysis with sampled cell variation and SA offset.
#include <cstdio>

#include "circuit/margin.hpp"
#include "common/config.hpp"
#include "common/table.hpp"

using namespace pinatubo;
using namespace pinatubo::circuit;

int run(const Args&) {
  const CsaModel csa;
  Rng rng(2024);

  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam}) {
    const auto& cell = nvm::cell_params(tech);
    Table t(std::string("n-row OR sensing margin, ") + nvm::to_string(tech));
    t.set_header({"rows", "boundary ratio", "per-side margin", "feasible",
                  "MC yield", "MC worst side"});
    for (const auto& p : margin_sweep(cell, BitOp::kOr, csa, 512)) {
      std::string yield = "-", worst = "-";
      if (p.n_rows <= 256) {
        const auto y =
            monte_carlo_yield(cell, BitOp::kOr, p.n_rows, 20000, csa, rng);
        yield = Table::num(y.yield, 6);
        worst = Table::num(y.worst_side, 6);
      }
      t.add_row({std::to_string(p.n_rows), Table::num(p.boundary_ratio, 4),
                 Table::num(p.side_margin, 4), p.feasible ? "yes" : "NO",
                 yield, worst});
    }
    t.add_note("derived max OR rows: " +
               std::to_string(derived_max_or_rows(tech, csa)));
    t.print();
    std::printf("\n");
  }

  Table and_t("Multi-row AND infeasibility (paper footnote 3), PCM");
  and_t.set_header({"rows", "boundary ratio", "feasible"});
  for (const auto& p :
       margin_sweep(nvm::cell_params(nvm::Tech::kPcm), BitOp::kAnd, csa, 8))
    and_t.add_row({std::to_string(p.n_rows), Table::num(p.boundary_ratio, 4),
                   p.feasible ? "yes" : "NO"});
  and_t.print();

  std::printf(
      "\npaper: PCM/ReRAM support up to 128-row OR; STT-MRAM only 2-row;\n"
      "multi-row AND cannot distinguish Rlow/(n-1)||Rhigh from Rlow/n.\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
