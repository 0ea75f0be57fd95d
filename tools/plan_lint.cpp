// plan_lint: the static verifier as a CLI gate (DESIGN.md §11).
//
//   plan_lint <trace-file>...             lint op-trace files (trace_io
//                                         line format): plans + schedule +
//                                         accounting through all passes
//   plan_lint --spec 19-16-7s             lint a generated Vector workload
//   plan_lint --suite [--scale=0.05]      lint the full Fig. 10 suite
//   plan_lint --trace sched.json          lint an exported Chrome trace
//            [--summary out.json]         (rules T01-T04); the summary is
//                                         machine-readable for CI
//                                         cross-checks (check_trace.py)
//
// Common options: --tech=pcm|sttmram|reram, --max-rows=N, --serial.
// Exit status: 0 = every rule held, 1 = diagnostics were reported,
// 2 = usage / IO error.  CI runs this over every example/bench plan, so an
// illegal plan or a dishonest schedule fails the build, not a benchmark.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/vector_workload.hpp"
#include "apps/workloads.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "pinatubo/backend.hpp"
#include "sim/trace_io.hpp"
#include "verify/rules.hpp"
#include "verify/trace_lint.hpp"

using namespace pinatubo;

namespace {

/// Prints a lint outcome; returns 1 on diagnostics, 0 when clean.
int report_outcome(const std::string& what, const verify::Report& rep) {
  if (rep.ok()) {
    std::printf("plan_lint: %s: OK\n", what.c_str());
    return 0;
  }
  std::fprintf(stderr, "plan_lint: %s: %zu finding(s)\n%s", what.c_str(),
               rep.diags.size(), rep.to_string().c_str());
  return 1;
}

/// Lints one op trace by pricing it on the Pinatubo backend with the
/// verifier on (plans, schedule and accounting through all passes), so
/// what CI lints is what benches run.  Findings return 1; any other Error
/// (e.g. a scheduler rejection) propagates.
int lint_op_trace(core::PinatuboBackend& backend, const std::string& what,
                  const sim::OpTrace& trace) {
  try {
    backend.execute(trace);
  } catch (const Error&) {
    if (backend.last_report().ok()) throw;
  }
  return report_outcome(what, backend.last_report());
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <trace-file>...\n"
      "       %s [options] --spec <a-b-c(s|r)>\n"
      "       %s [options] --suite [--scale=<0..1>]\n"
      "       %s --trace <sched.json> [--summary <out.json>]\n"
      "options: --tech=pcm|sttmram|reram  --max-rows=<n>  --serial\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

int run(const char* argv0, const Args& args) {
  const Config& flags = args.values;
  if (flags.contains("--help")) return usage(argv0);
  core::PinatuboBackendConfig cfg;
  cfg.verify = reliability::VerifyLevel::kAlways;
  if (const auto tech = flags.get("--tech"))
    cfg.tech = nvm::tech_from_string(*tech);
  cfg.max_rows = flags.get_u32("--max-rows", cfg.max_rows);
  cfg.serial = flags.contains("--serial");
  const double scale = flags.get_fraction("--scale", 0.05);
  const std::string spec = flags.get_or("--spec", "");
  const std::string chrome_trace = flags.get_or("--trace", "");
  const std::string summary_out = flags.get_or("--summary", "");
  const bool suite = flags.contains("--suite");
  if (!suite && spec.empty() && chrome_trace.empty() && args.files.empty())
    return usage(argv0);

  int status = 0;
  if (!chrome_trace.empty()) {
    verify::TraceStats stats;
    const verify::Report rep = verify::lint_trace_file(chrome_trace, &stats);
    status |= report_outcome("trace " + chrome_trace, rep);
    if (rep.ok())
      std::printf("  %zu spans on %zu tracks, max end %.1f ns\n",
                  stats.spans, stats.tracks, stats.max_end_ns);
    if (!summary_out.empty())
      write_text_file(summary_out, stats.to_json(rep) + '\n');
  }
  core::PinatuboBackend backend({}, cfg);
  if (!spec.empty())
    status |= lint_op_trace(backend, "spec " + spec,
                            apps::vector_trace(apps::VectorSpec::parse(spec)));
  if (suite)
    for (const auto& named : apps::paper_workloads(scale))
      status |= lint_op_trace(backend, named.group + "/" + named.name,
                              named.trace);
  for (const std::string& file : args.files)
    status |= lint_op_trace(backend, file, sim::load_trace_file(file));
  return status;
}

}  // namespace

// Numbers go through Config's strict getters, so trailing junk, a sign on
// an unsigned value and overflow exit 2 naming the flag.
int main(int argc, char** argv) {
  return run_main(argc, argv,
                  {.switches = {"--serial", "--suite", "--help"},
                   .options = {"--tech", "--max-rows", "--scale", "--spec",
                               "--trace", "--summary"},
                   .files = true},
                  [&](const Args& args) { return run(argv[0], args); });
}
