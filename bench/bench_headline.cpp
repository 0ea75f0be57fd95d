// The paper's evaluation in one suite pass: the Table-1 workloads (5 Vector
// configs, 3 graphs, 3 Fastbit batches) priced once on SIMD (DRAM and PCM),
// S-DRAM, AC-PIM, Pinatubo-2, Pinatubo-128 and Ideal, then rendered as four
// views of that one result matrix.
//
// Headline (abstract): "~500x speedup, ~28000x energy saving on bitwise
// operations, and 1.12x overall speedup, 1.11x overall energy saving over
// the conventional processor" (§6.2 quotes 2800x for the energy Gmean).
// Read from the Pinatubo-128 column of the figures below.
//
// Fig. 10 / Fig. 11: speedup / energy saving on the bitwise operations
// themselves.  Normalization follows the paper: S-DRAM vs SIMD-on-DRAM;
// AC-PIM and Pinatubo vs SIMD-on-PCM.  Expected shape (paper): S-DRAM
// beats Pinatubo-2 on the long 2-row sequential case; Pinatubo-128 ~22x
// over S-DRAM on average; AC-PIM slower than Pinatubo everywhere and never
// saves more energy than the other three; 14-16-7r (random) collapses
// Pinatubo-128 to Pinatubo-2; Gmean ~500x speedup, ~2800x energy.
//
// Fig. 12: OVERALL (scalar + bitwise) speedup and energy saving on the
// Graph and Fastbit applications, including the Ideal bound (zero-cost
// bitwise ops).  Expected shape (paper): Pinatubo almost reaches Ideal;
// dblp ~1.37x, the loose graphs (eswiki, amazon) far less; Fastbit ~1.29x;
// overall ~1.12x / ~1.11x.  The ceiling is Amdahl's law on the bitwise
// fraction of each application.
//
// Pinatubo runs with the static verifier on (DESIGN.md §11), so every
// priced trace is also checked.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "obs/trace.hpp"
#include "pinatubo/backend.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/ideal_backend.hpp"
#include "sim/sdram_backend.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

namespace {

constexpr std::size_t kPin128 = 3;  // column of Pinatubo-128 in every figure

void print_chart(const char* title, const char* y_label,
                 const RatioMatrix& m) {
  LogChart chart(title, y_label);
  chart.set_x_labels(m.workload_names);
  for (std::size_t b = 0; b < m.backend_names.size(); ++b)
    chart.add_series(m.backend_names[b], m.column(b));
  chart.print();
}

double max_of(const std::vector<double>& xs) {
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace

int run(const Args& args) {
  const double scale = args.values.get_fraction("--scale", 1.0);
  const std::string json_path = args.values.get_or("--json", "");
  const std::string trace_path = args.values.get_or("--trace-out", "");
  obs::TraceSession trace(!trace_path.empty());

  const auto workloads = apps::paper_workloads(scale);
  const auto baselines = run_baselines(workloads);

  sim::SdramBackend sdram;
  sim::AcPimBackend acpim;
  core::PinatuboBackend pin2({}, {.tech = nvm::Tech::kPcm, .max_rows = 2});
  core::PinatuboBackend pin128({},
                               {.tech = nvm::Tech::kPcm, .max_rows = 128});
  pin128.set_trace(&trace);
  sim::IdealBackend ideal(sim::MemKind::kPcm);

  const std::vector<SuiteRun> pim{
      run_suite(sdram, workloads), run_suite(acpim, workloads),
      run_suite(pin2, workloads), run_suite(pin128, workloads)};
  std::vector<SuiteRun> with_ideal = pim;
  with_ideal.push_back(run_suite(ideal, workloads));

  // Fig. 12 covers the applications only.  `scale` shrinks just the Vector
  // specs, so these rows are the paper-size traces at any scale.
  std::vector<std::size_t> app_rows;
  for (std::size_t i = 0; i < workloads.size(); ++i)
    if (workloads[i].group != "Vector") app_rows.push_back(i);

  const auto fig10 = build_matrix(
      workloads, baselines, pim, {true, false, false, false},
      [](const sim::BackendResult& r) { return r.bitwise.time_ns; });
  const auto fig11 = build_matrix(
      workloads, baselines, pim, {true, false, false, false},
      [](const sim::BackendResult& r) { return r.bitwise.energy.total_pj(); });
  const auto fig12_time = build_matrix(
      workloads, baselines, with_ideal, {true, false, false, false, false},
      [](const sim::BackendResult& r) { return r.total_time_ns(); }, app_rows);
  const auto fig12_energy = build_matrix(
      workloads, baselines, with_ideal, {true, false, false, false, false},
      [](const sim::BackendResult& r) { return r.total_energy_pj(); },
      app_rows);

  const auto sp_bit = fig10.column(kPin128);
  const auto en_bit = fig11.column(kPin128);
  Table t("Headline numbers (abstract) — measured vs paper");
  t.set_header({"metric", "measured", "paper"});
  t.add_row({"bitwise speedup (Gmean)", Table::mult(fig10.gmean[kPin128]),
             "~500x"});
  t.add_row({"bitwise speedup (best workload)", Table::mult(max_of(sp_bit)),
             "-"});
  t.add_row({"bitwise energy saving (Gmean)",
             Table::mult(fig11.gmean[kPin128]), "~2800x (abstract: ~28000x)"});
  t.add_row({"bitwise energy saving (best)", Table::mult(max_of(en_bit)),
             "-"});
  t.add_row({"overall app speedup (Gmean)",
             Table::mult(fig12_time.gmean[kPin128]), "1.12x"});
  t.add_row({"overall app energy saving (Gmean)",
             Table::mult(fig12_energy.gmean[kPin128]), "1.11x"});
  t.add_note("overall = Graph + Fastbit applications, vs SIMD on PCM");
  t.print();

  JsonReport json;
  json.add("scale", scale);
  json.add("bitwise_speedup_gmean", fig10.gmean[kPin128]);
  json.add("bitwise_energy_gmean", fig11.gmean[kPin128]);
  json.add("app_speedup_gmean", fig12_time.gmean[kPin128]);
  json.add("app_energy_gmean", fig12_energy.gmean[kPin128]);
  json.add_array("bitwise_speedup", sp_bit);
  json.add_array("bitwise_energy", en_bit);
  json.add_array("app_speedup", fig12_time.column(kPin128));
  json.add_array("app_energy", fig12_energy.column(kPin128));
  json.add_matrix("fig10_speedup", fig10);
  json.add_matrix("fig11_energy", fig11);
  json.add_matrix("fig12_speedup", fig12_time);
  json.add_matrix("fig12_energy", fig12_energy);
  json.write(json_path);

  if (trace.enabled()) {
    trace.write_chrome_json(trace_path);
    std::printf("wrote schedule trace to %s (%zu spans); open in "
                "chrome://tracing or ui.perfetto.dev\n",
                trace_path.c_str(), trace.spans().size());
  }

  auto t10 = matrix_table("Fig. 10 — bitwise-op speedup normalized to SIMD",
                          fig10);
  t10.add_note("paper: Pinatubo-128 ~22x over S-DRAM; Gmean ~500x;");
  t10.add_note("paper: 14-16-7r collapses Pinatubo-128 to Pinatubo-2;");
  t10.add_note("paper: AC-PIM slower than Pinatubo in every case.");
  t10.print();
  std::printf("\nPinatubo-128 / S-DRAM (Gmean): %.1fx\n",
              fig10.gmean[kPin128] / fig10.gmean[0]);
  print_chart("Fig. 10 — speedup over SIMD", "speedup (x)", fig10);

  auto t11 = matrix_table(
      "Fig. 11 — bitwise-op energy saving normalized to SIMD", fig11);
  t11.add_note("paper: Pinatubo saves ~2800x on average (Gmean);");
  t11.add_note("paper: AC-PIM never beats S-DRAM/Pinatubo on energy.");
  t11.print();
  print_chart("Fig. 11 — energy saving over SIMD", "saving (x)", fig11);

  matrix_table("Fig. 12 (left) — overall speedup normalized to SIMD",
               fig12_time)
      .print();
  std::printf("\n");
  matrix_table("Fig. 12 (right) — overall energy saving normalized to SIMD",
               fig12_energy)
      .print();
  std::printf("\n");

  // Bitwise time fraction under the SIMD baseline — the Amdahl ceiling.
  Table frac("Bitwise fraction of SIMD-PCM execution (Amdahl ceiling)");
  frac.set_header({"workload", "bitwise %", "ideal speedup"});
  for (const std::size_t i : app_rows) {
    const auto& r = baselines.simd_pcm.results[i];
    const double f = r.bitwise.time_ns / r.total_time_ns();
    frac.add_row({workloads[i].name, Table::num(100 * f, 3),
                  Table::mult(1.0 / (1.0 - f))});
  }
  frac.add_note("paper: dblp 1.37x, Fastbit ~1.29x, overall 1.12x");
  frac.print();
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv,
                  {.options = {"--scale", "--json", "--trace-out"}}, run);
}
