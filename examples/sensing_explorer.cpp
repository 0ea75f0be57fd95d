// Sensing-margin explorer: interactive view of WHY multi-row ops work and
// where they stop — reference placement, transient waveforms, Monte-Carlo
// yield — for any technology and row count.  Dumps waveform CSVs for
// plotting.
//
// Build & run:  ./examples/sensing_explorer [tech=pcm] [rows=128]
#include <cstdio>

#include "circuit/margin.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

using namespace pinatubo;
using namespace pinatubo::circuit;

namespace {

int run(const Args& args) {
  const Config& cfg = args.config;
  const auto tech = nvm::tech_from_string(cfg.get_or("tech", "pcm"));
  const unsigned rows = cfg.get_u32("rows", 128);
  PIN_CHECK_MSG(rows >= 2, "rows = " << rows << ": an OR senses >= 2 rows");
  const auto& cell = nvm::cell_params(tech);
  const CsaModel csa;

  std::printf("%s: Rlow=%.0f ohm, Rhigh=%.0f ohm, ON/OFF=%.1f\n",
              nvm::to_string(tech), cell.r_low_ohm, cell.r_high_ohm,
              cell.on_off_ratio());

  const auto ref = op_reference(cell, BitOp::kOr, rows);
  std::printf("\n%u-row OR: I(one 1)=%.3f uA, I(all 0)=%.3f uA, "
              "ref=%.3f uA, boundary ratio %.3f -> %s\n",
              rows, ref.i_result1_a * 1e6, ref.i_result0_a * 1e6,
              ref.i_ref_a * 1e6, ref.boundary_ratio(),
              csa.supports(BitOp::kOr, rows, cell) ? "SENSIBLE"
                                                   : "NOT SENSIBLE");

  Rng rng(1);
  const auto yield =
      monte_carlo_yield(cell, BitOp::kOr, rows, 50000, csa, rng);
  std::printf("Monte-Carlo yield (50k adversarial patterns): %.6f "
              "(worst side %.6f)\n",
              yield.yield, yield.worst_side);

  // Transient of the worst-case "1" (single LRS among rows-1 HRS).
  const auto tr = csa.sense_transient(ref.i_result1_a, ref.i_ref_a);
  std::printf("\nworst-case '1' transient: output=%d, resolve at %.2f ns, "
              "final margin %.2f V\n",
              tr.output, tr.resolve_time_ns, tr.margin_v);
  std::printf("%s", tr.waveform.to_ascii().c_str());

  const std::string csv = "sensing_" + std::string(nvm::to_string(tech)) +
                          "_" + std::to_string(rows) + "row.csv";
  write_text_file(csv, tr.waveform.to_csv());
  std::printf("\nwaveform dumped to %s\n", csv.c_str());

  std::printf("\nderived max OR rows for %s: %u\n", nvm::to_string(tech),
              derived_max_or_rows(tech, csa));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, {.keys = {"tech", "rows"}}, run);
}
