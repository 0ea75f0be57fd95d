// Reproduces Table 1: the benchmark & dataset suite, characterized —
// op counts and mixes, vector lengths, total bits in flight, scalar work,
// and (for Pinatubo) the intra/inter op classification the allocation
// produces.  This is the workload-side ground truth for Figs. 10-12.
#include <cstdio>

#include "bench_util.hpp"
#include "apps/graph.hpp"
#include "common/config.hpp"
#include "common/units.hpp"
#include "pinatubo/backend.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

int run(const Args& args) {
  const double scale = args.values.get_fraction("--scale", 1.0);
  const auto workloads = apps::paper_workloads(scale);

  Table t("Table 1 — benchmarks and data sets (characterized)");
  t.set_header({"group", "workload", "ops", "OR", "AND", "XOR", "INV",
                "vector bits", "src data", "scalar Mops", "intra%"});
  for (const auto& w : workloads) {
    std::size_t n_or = 0, n_and = 0, n_xor = 0, n_inv = 0;
    std::uint64_t bits = 0;
    for (const auto& op : w.trace.ops) {
      switch (op.op) {
        case BitOp::kOr: ++n_or; break;
        case BitOp::kAnd: ++n_and; break;
        case BitOp::kXor: ++n_xor; break;
        case BitOp::kInv: ++n_inv; break;
      }
      bits = std::max(bits, op.bits);
    }
    core::PinatuboBackend pin({}, {nvm::Tech::kPcm, 128});
    pin.execute(w.trace);
    const auto& c = pin.last_class_counts();
    const double total = static_cast<double>(c.intra + c.inter_sub + c.inter_bank);
    t.add_row({w.group, w.name, std::to_string(w.trace.op_count()),
               std::to_string(n_or), std::to_string(n_and),
               std::to_string(n_xor), std::to_string(n_inv),
               std::to_string(bits),
               pinatubo::units::format_bytes(w.trace.total_src_bits() / 8),
               Table::num(w.trace.scalar_ops / 1e6, 3),
               total > 0 ? Table::num(100.0 * c.intra / total, 3) : "-"});
  }
  t.add_note("Vector: a-b-c(s|r) = 2^a-bit vectors, 2^b of them, 2^c-row OR");
  t.add_note("Graph: bitmap BFS on synthetic stand-ins for dblp/eswiki/amazon");
  t.add_note("Fastbit: bitmap-index query batches on a STAR-like event table");
  t.print();

  Table g("Graph dataset stand-ins vs published originals");
  g.set_header({"dataset", "character", "synthetic nodes", "synthetic edges",
                "real nodes", "real edges"});
  for (const auto& preset : {apps::dblp2010_like(), apps::eswiki2013_like(),
                             apps::amazon2008_like()}) {
    const auto graph = apps::build_dataset(preset, 17);
    g.add_row({preset.name, preset.character, std::to_string(graph.nodes()),
               std::to_string(graph.edges()),
               std::to_string(preset.real_nodes),
               std::to_string(preset.real_edges)});
  }
  g.print();
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, {.options = {"--scale"}}, run);
}
