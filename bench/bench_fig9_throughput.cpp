// Reproduces Fig. 9: Pinatubo's OR-operation throughput (GBps) versus
// bit-vector length (2^10 .. 2^20) for 2..128-row operations.
//
// Expected shape (paper):
//   * throughput rises with vector length;
//   * turning point A at 2^14 (SA sharing: longer vectors need serial
//     column sensing steps);
//   * turning point B at 2^19 (row-group limit: longer vectors map to
//     ranks that work in serial);
//   * more rows per op => proportionally more equivalent bandwidth,
//     crossing from below the DDR3 bus bandwidth (12.8 GB/s) through the
//     memory-internal region into the beyond-internal region (~1e4 GBps).
//
// Extension section (beyond the paper): batched throughput through the
// execution engine on a two-rank workload, against the serial sum the
// paper's synchronous driver pays, for 2-, 8- and 128-row ORs.
// `--json <path>` dumps both sections machine-readably.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/schedule_trace.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

int run(const Args& args) {
  const std::string json_path = args.values.get_or("--json", "");
  const std::string trace_path = args.values.get_or("--trace-out", "");
  JsonReport json;

  const mem::Geometry geo;
  core::PinatuboBackend pin(geo, {nvm::Tech::kPcm, 128});

  const std::vector<unsigned> row_counts{2, 4, 8, 16, 32, 64, 128};
  std::vector<std::string> x_labels;
  for (unsigned a = 10; a <= 20; ++a) x_labels.push_back(std::to_string(a));

  Table table("Fig. 9 — Pinatubo OR throughput (GBps) vs bit-vector length");
  std::vector<std::string> header{"rows\\len(2^n)"};
  for (const auto& x : x_labels) header.push_back(x);
  table.set_header(header);

  LogChart chart("Fig. 9 — OR throughput", "GBps");
  chart.set_x_labels(x_labels);
  chart.add_hline("DDR3 bus bandwidth", 12.8);

  for (const unsigned n : row_counts) {
    std::vector<std::string> row{std::to_string(n) + "-row"};
    std::vector<double> series;
    for (unsigned a = 10; a <= 20; ++a) {
      const std::uint64_t bits = 1ull << a;
      // n consecutively allocated vectors, in-place destination.
      std::vector<std::uint64_t> ids;
      for (unsigned k = 0; k < n; ++k) ids.push_back(k);
      const auto cost = pin.op_cost(BitOp::kOr, ids, n - 1, bits, false, 0.5);
      const double gbps =
          static_cast<double>(n) * static_cast<double>(bits) / 8.0 /
          cost.time_ns;
      row.push_back(Table::num(gbps, 3));
      series.push_back(gbps);
    }
    table.add_row(row);
    chart.add_series(std::to_string(n) + "-row", series);
    json.add_array("or_gbps_" + std::to_string(n) + "row", series);
  }
  table.add_note("turning point A expected at 2^14 (SA 32:1 sharing)");
  table.add_note("turning point B expected at 2^19 (row-group / rank limit)");
  table.add_note("DDR3-1600 bus bandwidth = 12.8 GBps");
  table.print();
  std::printf("\n");
  chart.print();

  // --- Extension: batched engine throughput on a two-rank workload ----
  // 64 independent n-row ORs on full-group (2^19-bit) vectors whose
  // consecutive ops alternate ranks: the engine overlaps the two rank
  // clusters, the serial baseline sums every op.  The 8-row batch comes
  // first, unlabeled: it is the one the JSON and the trace report.
  core::RowAllocator alloc(geo, core::AllocPolicy::kPimAware);
  core::OpScheduler sched(geo, core::SchedulerConfig{128, nvm::Tech::kPcm});
  core::PinatuboCostModel model(geo, nvm::Tech::kPcm);
  const core::ExecutionEngine engine(model);
  obs::TraceSession trace(!trace_path.empty());

  constexpr unsigned kOps = 64;
  constexpr unsigned kRowsPerOp = 8;
  constexpr std::uint64_t kBits = 1ull << 19;
  // Full-group vectors: 128 rows/subarray, 64 subarrays/rank, so index
  // 8192 is the first vector of rank 1.
  const std::uint64_t rank1 = 64ull * 128;
  Table bt("Batched throughput — engine vs serial baseline");
  bt.set_header({"schedule", "time", "GBps"});
  for (const unsigned n : {kRowsPerOp, 2u, 128u}) {
    std::vector<core::OpPlan> plans;
    std::vector<std::uint64_t> cursor{0, rank1};
    for (unsigned op = 0; op < kOps; ++op) {
      auto& index = cursor[op % 2];
      std::vector<core::Placement> srcs;
      for (unsigned k = 0; k < n; ++k)
        srcs.push_back(alloc.virtual_placement(index++, kBits));
      plans.push_back(sched.plan(BitOp::kOr, srcs, srcs.back(), false));
    }

    const double moved_bytes = static_cast<double>(kOps) * n * kBits / 8.0;
    mem::Cost serial;
    for (const auto& p : plans) serial += model.plan_cost(p);
    const double serial_gbps = moved_bytes / serial.time_ns;
    const auto r = engine.run(plans);
    const double engine_gbps = moved_bytes / r.cost.time_ns;
    const double speedup = serial.time_ns / r.cost.time_ns;
    PIN_CHECK_MSG(std::abs(serial.energy.total_pj() -
                           r.cost.energy.total_pj()) <=
                      1e-6 * serial.energy.total_pj(),
                  "energy changed under the engine schedule");

    const bool featured = n == kRowsPerOp;
    const std::string tag = featured ? "" : std::to_string(n) + "-row ";
    if (!featured) bt.add_separator();
    bt.add_row({tag + "serial sum", units::format_time(serial.time_ns),
                Table::num(serial_gbps, 3)});
    bt.add_row({featured ? "engine (overlapped)" : tag + "engine",
                units::format_time(r.cost.time_ns),
                Table::num(engine_gbps, 3)});
    bt.add_row({tag + "speedup", "-", Table::mult(speedup)});
    if (!featured) continue;
    json.add("batched_ops", static_cast<double>(kOps));
    json.add("batched_serial_gbps", serial_gbps);
    json.add("batched_engine_gbps", engine_gbps);
    json.add("batched_speedup", speedup);
    obs::render_schedule(trace, plans, r, 0.0);
  }
  bt.add_note("64 independent 8-row ORs on 2^19-bit vectors, ops alternate");
  bt.add_note("ranks; the engine overlaps the two rank clusters");
  std::printf("\n");
  bt.print();
  json.write(json_path);

  if (trace.enabled()) {
    trace.write_chrome_json(trace_path);
    std::printf("\nwrote batched-section schedule trace to %s (%zu spans)\n",
                trace_path.c_str(), trace.spans().size());
  }
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, {.options = {"--json", "--trace-out"}}, run);
}
