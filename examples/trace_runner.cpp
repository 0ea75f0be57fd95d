// Trace runner: record a workload once, price it on every architecture.
//
//   ./examples/trace_runner --demo              # write a demo trace file
//   ./examples/trace_runner <trace-file>        # price it on all backends
//   ./examples/trace_runner <trace-file> --trace-out sched.json
//                            # also dump Pinatubo-128's schedule as Chrome
//                            # trace-event JSON (chrome://tracing/Perfetto)
//
// Trace files use the line format of src/sim/trace_io.hpp, so they can be
// produced by any tool (or by hand) and shared between machines.
#include <cstdio>
#include <string>

#include "apps/vector_workload.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "pinatubo/backend.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"
#include "sim/trace_io.hpp"

using namespace pinatubo;

namespace {

int run(const char* argv0, const Args& args) {
  const std::string trace_out = args.values.get_or("--trace-out", "");
  if (args.values.contains("--demo")) {
    const auto trace =
        apps::vector_trace(apps::VectorSpec::parse("14-10-5s"));
    sim::save_trace_file(trace, "demo.trace");
    std::printf("wrote demo.trace (%zu ops); run:\n  %s demo.trace\n",
                trace.op_count(), argv0);
    return 0;
  }
  const auto path = args.values.get("trace-file");
  if (!path) {
    std::fprintf(stderr,
                 "usage: %s (--demo | <trace-file> [--trace-out <json>])\n",
                 argv0);
    return 1;
  }

  const auto trace = sim::load_trace_file(*path);
  std::printf("trace '%s': %zu ops, %s of operand data\n\n",
              trace.name.c_str(), trace.op_count(),
              units::format_bytes(trace.total_src_bits() / 8).c_str());

  sim::SimdBackend simd_dram(sim::MemKind::kDram);
  sim::SimdBackend simd_pcm(sim::MemKind::kPcm);
  sim::SdramBackend sdram;
  sim::AcPimBackend acpim;
  core::PinatuboBackend pin2({}, {nvm::Tech::kPcm, 2});
  core::PinatuboBackend pin128({}, {nvm::Tech::kPcm, 128});
  obs::TraceSession sched_trace(!trace_out.empty());
  pin128.set_trace(&sched_trace);

  Table t("Trace cost across architectures");
  t.set_header({"backend", "bitwise time", "bitwise energy", "total time"});
  for (sim::Backend* b :
       std::initializer_list<sim::Backend*>{&simd_dram, &simd_pcm, &sdram,
                                            &acpim, &pin2, &pin128}) {
    const auto r = b->execute(trace);
    t.add_row({b->name(), units::format_time(r.bitwise.time_ns),
               units::format_energy(r.bitwise.energy.total_pj()),
               units::format_time(r.total_time_ns())});
  }
  t.print();

  if (sched_trace.enabled()) {
    sched_trace.write_chrome_json(trace_out);
    std::printf("\nwrote Pinatubo-128 schedule trace to %s (%zu spans)\n",
                trace_out.c_str(), sched_trace.spans().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv,
                  {.switches = {"--demo"},
                   .options = {"--trace-out"},
                   .words = {"trace-file"}},
                  [&](const Args& args) { return run(argv[0], args); });
}
