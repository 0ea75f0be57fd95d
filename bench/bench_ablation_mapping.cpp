// Ablation: how much of Pinatubo's win comes from the PIM-aware OS
// mapping (paper §5)?  The same traces priced under the PIM-aware
// allocator vs a conventional page-interleaving ("naive") allocator that
// scatters consecutive bit-vectors across subarrays.
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/units.hpp"
#include "pinatubo/backend.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

int run(const Args& args) {
  const double scale = args.values.get_fraction("--scale", 0.25);
  const auto workloads = apps::paper_workloads(scale);

  core::PinatuboBackend aware({}, {nvm::Tech::kPcm, 128,
                                   core::AllocPolicy::kPimAware});
  core::PinatuboBackend naive({}, {nvm::Tech::kPcm, 128,
                                   core::AllocPolicy::kNaive});

  Table t("Ablation — PIM-aware vs naive allocation (Pinatubo-128)");
  t.set_header({"workload", "aware intra%", "naive intra%", "aware time",
                "naive time", "slowdown"});
  for (const auto& w : workloads) {
    const auto ra = aware.execute(w.trace);
    const auto ca = aware.last_class_counts();
    const auto rn = naive.execute(w.trace);
    const auto cn = naive.last_class_counts();
    auto pct = [](const core::PinatuboBackend::ClassCounts& c) {
      const double total =
          static_cast<double>(c.intra + c.inter_sub + c.inter_bank);
      return total > 0 ? 100.0 * static_cast<double>(c.intra) / total : 0.0;
    };
    t.add_row({w.name, Table::num(pct(ca), 3), Table::num(pct(cn), 3),
               pinatubo::units::format_time(ra.bitwise.time_ns),
               pinatubo::units::format_time(rn.bitwise.time_ns),
               Table::mult(rn.bitwise.time_ns / ra.bitwise.time_ns)});
  }
  t.add_note("naive placement demotes intra-subarray ops to the buffer");
  t.add_note("paths, erasing the multi-row activation advantage");
  t.print();
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, {.options = {"--scale"}}, run);
}
