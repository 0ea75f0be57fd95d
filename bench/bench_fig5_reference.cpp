// Reproduces Fig. 5: how the SA reference value moves to turn a read into
// an OR — the bitline resistance cases and the reference placement, for
// normal reads and for 2..128-row OR/AND on each NVM technology.
#include <cstdio>

#include "circuit/csa.hpp"
#include "circuit/reference.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "nvm/cell.hpp"

using namespace pinatubo;
using namespace pinatubo::circuit;

int run(const Args&) {
  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam}) {
    const auto& cell = nvm::cell_params(tech);
    Table t(std::string("Fig. 5 — reference placement, ") +
            nvm::to_string(tech));
    t.set_header({"operation", "I(result=1) uA", "I_ref uA",
                  "I(result=0) uA", "boundary ratio", "sensible?"});
    auto add = [&](const char* name, const Reference& r, bool ok) {
      t.add_row({name, Table::num(r.i_result1_a * 1e6, 4),
                 Table::num(r.i_ref_a * 1e6, 4),
                 Table::num(r.i_result0_a * 1e6, 4),
                 Table::num(r.boundary_ratio(), 4), ok ? "yes" : "no"});
    };
    const CsaModel csa;
    add("READ", read_reference(cell), true);
    for (unsigned n : {2u, 4u, 8u, 32u, 128u, 256u}) {
      const auto r = op_reference(cell, BitOp::kOr, n);
      add((std::to_string(n) + "-row OR").c_str(), r,
          csa.supports(BitOp::kOr, n, cell));
    }
    add("2-row AND", op_reference(cell, BitOp::kAnd, 2),
        csa.supports(BitOp::kAnd, 2, cell));
    t.add_note("Rlow = " + Table::num(cell.r_low_ohm / 1e3) +
               " kOhm, Rhigh = " + Table::num(cell.r_high_ohm / 1e3) +
               " kOhm (ON/OFF " + Table::num(cell.on_off_ratio()) + ")");
    t.add_note("sensible = boundary ratio >= CSA minimum (" +
               Table::num(csa.config().min_boundary_ratio) + ")");
    t.print();
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
