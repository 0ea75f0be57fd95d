// Reproduces Fig. 6: the modified CSA resolving OR / AND / XOR — the
// HSPICE validation replaced by our transient solver.  For each input
// pattern the three-phase sense runs on real bitline currents; the output
// truth tables and waveforms must match the target op.  Swept across the
// PCM / STT-MRAM / ReRAM resistance corners like the paper's validation.
#include <cstdio>

#include "circuit/csa.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "nvm/cell.hpp"

using namespace pinatubo;
using namespace pinatubo::circuit;

int run(const Args&) {
  const CsaModel csa;
  int failures = 0;

  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam}) {
    const auto& cell = nvm::cell_params(tech);
    const nvm::BitlineModel bl(cell);
    Table t(std::string("Fig. 6 — CSA transient validation, ") +
            nvm::to_string(tech));
    t.set_header({"op", "row data", "I_bl uA", "I_ref uA", "out", "expect",
                  "resolve ns", "margin V"});

    auto run = [&](BitOp op, std::vector<bool> bits, bool expect) {
      const auto ref = op == BitOp::kXor || op == BitOp::kInv
                           ? read_reference(cell)
                           : op_reference(cell, op,
                                          static_cast<unsigned>(bits.size()));
      std::string pattern;
      for (const bool b : bits) pattern += b ? '1' : '0';
      if (op == BitOp::kXor) {
        // Two micro-steps; report the behavioural result and the second
        // step's transient.
        const bool out = csa.sense_op(op, bits, cell, nullptr);
        const auto tr = csa.sense_transient(
            bl.nominal_current_a({bits[1]}), ref.i_ref_a);
        t.add_row({to_string(op), pattern, "-",
                   Table::num(ref.i_ref_a * 1e6, 3), out ? "1" : "0",
                   expect ? "1" : "0", Table::num(tr.resolve_time_ns, 3),
                   Table::num(tr.margin_v, 3)});
        failures += out != expect;
        return;
      }
      const double i_bl = bl.nominal_current_a(bits);
      const auto tr = csa.sense_transient(i_bl, ref.i_ref_a);
      const bool out = op == BitOp::kInv ? !tr.output : tr.output;
      t.add_row({to_string(op), pattern, Table::num(i_bl * 1e6, 3),
                 Table::num(ref.i_ref_a * 1e6, 3), out ? "1" : "0",
                 expect ? "1" : "0", Table::num(tr.resolve_time_ns, 3),
                 Table::num(tr.margin_v, 3)});
      failures += out != expect;
    };

    run(BitOp::kOr, {false, false}, false);
    run(BitOp::kOr, {true, false}, true);
    run(BitOp::kOr, {true, true}, true);
    run(BitOp::kAnd, {false, false}, false);
    run(BitOp::kAnd, {true, false}, false);
    run(BitOp::kAnd, {true, true}, true);
    run(BitOp::kXor, {false, false}, false);
    run(BitOp::kXor, {true, false}, true);
    run(BitOp::kXor, {true, true}, false);
    run(BitOp::kInv, {false}, true);
    run(BitOp::kInv, {true}, false);
    t.print();
    std::printf("\n");
  }

  // One waveform, rendered like the paper's scope shot: a PCM 2-row OR
  // with pattern (1,0) — the hard case for the OR reference.
  const auto& pcm = nvm::cell_params(nvm::Tech::kPcm);
  const nvm::BitlineModel bl(pcm);
  const auto ref = op_reference(pcm, BitOp::kOr, 2);
  const auto tr =
      CsaModel().sense_transient(bl.nominal_current_a({true, false}),
                                 ref.i_ref_a);
  std::printf("PCM 2-row OR, rows=(1,0) — three-phase transient:\n%s\n",
              tr.waveform.to_ascii().c_str());
  std::printf("Fig. 6 validation: %s (%d mismatches)\n",
              failures == 0 ? "ALL PATTERNS RESOLVE CORRECTLY" : "FAILURES",
              failures);
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
