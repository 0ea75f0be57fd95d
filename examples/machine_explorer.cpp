// Machine explorer: load a machine description (config file + key=value
// overrides), print the derived organization, area, sensing limits, and a
// few representative op costs.
//
// Build & run:  ./examples/machine_explorer [configs/default.cfg] [k=v ...]
//                                           [--trace-out batch.json]
// `--trace-out` writes the demo batch's schedule as Chrome trace-event
// JSON (open in chrome://tracing or ui.perfetto.dev).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "circuit/margin.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "mem/area_model.hpp"
#include "obs/trace.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"

using namespace pinatubo;

int main(int argc, char** argv) {
  Config cfg;
  std::vector<std::string> overrides;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(arg);
    } else {
      std::ifstream f(arg);
      if (!f) {
        std::fprintf(stderr, "cannot open config %s\n", arg.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << f.rdbuf();
      cfg.merge(Config::from_string(ss.str()));
    }
  }
  cfg.merge(Config::from_args(overrides));

  // Functional-simulation pool size; 0 defers to PINATUBO_THREADS, then
  // hardware_concurrency (results are thread-count invariant).
  ThreadPool::set_global_threads(
      parse_thread_count(cfg.get_or("threads", "0"), "threads"));

  const auto geo = mem::geometry_from_config(cfg);
  const auto tech = nvm::tech_from_string(cfg.get_or("tech", "pcm"));
  const auto max_rows =
      static_cast<unsigned>(cfg.get_u64("max_rows", 128));

  Table t("Machine");
  t.set_header({"property", "value"});
  t.add_row({"technology", nvm::to_string(tech)});
  t.add_row({"organization",
             std::to_string(geo.channels) + " ch x " +
                 std::to_string(geo.ranks_per_channel) + " rk x " +
                 std::to_string(geo.chips_per_rank) + " chips x " +
                 std::to_string(geo.banks_per_chip) + " banks x " +
                 std::to_string(geo.subarrays_per_bank) + " subarrays x " +
                 std::to_string(geo.rows_per_subarray) + " rows"});
  t.add_row({"capacity", units::format_bytes(geo.total_bytes())});
  t.add_row({"row group (turning point B)",
             std::to_string(geo.row_group_bits()) + " bits"});
  t.add_row({"sense step (turning point A)",
             std::to_string(geo.sense_step_bits()) + " bits"});
  t.add_row({"derived max OR rows",
             std::to_string(circuit::derived_max_or_rows(tech))});
  t.print();
  std::printf("\n");

  // Active fault-injection / recovery policy (validated: typos in
  // fault.*/verify.*/retry.* keys fail loudly here).
  const auto relpol = reliability::policy_from_config(cfg);
  Table rp("Reliability policy");
  rp.set_header({"key", "value"});
  for (const auto& [k, v] : reliability::describe(relpol)) rp.add_row({k, v});
  rp.print();
  std::printf("\n");

  const mem::AreaModel area(nvm::cell_params(tech), geo);
  std::printf("chip area %.2f mm^2; Pinatubo overhead %.3f%%, AC-PIM %.3f%%\n\n",
              area.baseline().total_um2() / 1e6,
              area.pinatubo_overhead().total_percent(),
              area.acpim_overhead().total_percent());

  core::PinatuboBackend pin(geo, {tech, max_rows});
  Table ops("Representative op costs");
  ops.set_header({"op", "time", "energy", "equiv GBps"});
  struct Case {
    const char* name;
    unsigned n;
    std::uint64_t bits;
  };
  for (const Case& c : {Case{"2-row OR, one stripe", 2, 1ull << 14},
                        Case{"2-row OR, full row", 2, 1ull << 19},
                        Case{"max-row OR, full row", max_rows, 1ull << 19}}) {
    const unsigned n = std::min(c.n, circuit::derived_max_or_rows(tech));
    std::vector<std::uint64_t> ids;
    for (unsigned k = 0; k < n; ++k) ids.push_back(k);
    const auto cost = pin.op_cost(BitOp::kOr, ids, n - 1, c.bits, false, 0.5);
    ops.add_row({c.name, units::format_time(cost.time_ns),
                 units::format_energy(cost.energy.total_pj()),
                 Table::num(n * (c.bits / 8.0) / cost.time_ns, 4)});
  }
  ops.print();
  std::printf("\n");

  // Run a small batched workload through the runtime and show where the
  // time and energy go, per step class.
  core::PimRuntime::Options ropts;
  ropts.tech = tech;
  ropts.max_rows = max_rows;
  ropts.reliability = relpol;
  core::PimRuntime pim(geo, ropts);
  obs::TraceSession trace(!trace_path.empty());
  pim.set_trace(&trace);
  // Two-group vectors span both ranks, so the engine overlaps the groups
  // of independent ops; the last two ops stream their result to the host.
  const std::uint64_t bits = 2 * geo.row_group_bits();
  std::vector<core::PimRuntime::Handle> vecs;
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    pim.pim_write(vecs.back(), BitVector::random(bits, 0.5, rng));
  }
  pim.pim_begin();
  for (int i = 0; i < 4; ++i)
    pim.pim_op(BitOp::kOr, {vecs[2 * i], vecs[2 * i + 1]}, vecs[2 * i]);
  pim.pim_op(BitOp::kAnd, {vecs[0], vecs[2]}, vecs[0], true);
  pim.pim_op(BitOp::kXor, {vecs[4], vecs[6]}, vecs[4], true);
  pim.pim_barrier();

  const auto& st = pim.stats();
  Table br("Runtime breakdown — one 6-op batch window");
  br.set_header({"step class", "steps", "time", "energy"});
  for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
    const auto& c = st.by_class[k];
    if (c.steps == 0) continue;
    br.add_row({core::to_string(static_cast<core::StepKind>(k)),
                std::to_string(c.steps), units::format_time(c.time_ns),
                units::format_energy(c.energy_pj)});
  }
  br.add_separator();
  br.add_row({"serial sum", "-", units::format_time(st.serial_time_ns), "-"});
  br.add_row({"overlapped (engine)", "-",
              units::format_time(pim.cost().time_ns),
              units::format_energy(pim.cost().energy.total_pj())});
  br.add_note("bus bytes moved: " + units::format_bytes(st.bus_bytes));
  br.add_note("energy by component: " + pim.cost().energy.to_string());
  br.print();

  if (trace.enabled()) {
    trace.write_chrome_json(trace_path);
    std::printf("\nwrote batch schedule trace to %s (%zu spans over %zu "
                "tracks); open in chrome://tracing or ui.perfetto.dev\n",
                trace_path.c_str(), trace.spans().size(),
                trace.track_names().size());
  }
  return 0;
}
