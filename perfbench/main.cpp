// pinbench — the two-clock benchmark's measuring program (see README.md).
//
//   pinbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--threads N] [--size full|tiny] [--record <file>]
//            [--out-dir <dir>] [--faulty-cfg <file>]
//            [--corrupt-golden]
//   pinbench --write-record <file> --seeds <a,b,...>
//
// Prints "# ..." log lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1).  Exit code 0 means the run completed; the
// verdict on the outputs is the JSON's "correct".
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"

using namespace perfbench;

namespace {

/// Writes the machine-clock record of every workload for `seeds`, at both
/// sizes, to `path`.
int write_record(const std::vector<std::uint64_t>& seeds, const std::string& path,
                 const std::string& faulty_cfg) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  f << "# Machine-clock record of every workload (see README.md).\n"
       "# suites: size seed trace backend bitwise_ns bitwise_pj scalar_ns"
       " scalar_pj intra inter_sub inter_bank\n"
       "# drivers: size seed round workload time_ns energy_pj serial_ns"
       " class_ns[intra inter_sub inter_bank host_read] bus_bytes batches"
       " intra inter_sub inter_bank host_reads detected retries"
       " deescalations remaps fallbacks\n";
  for (const Size size : {Size::kFull, Size::kTiny}) {
    for (const auto seed : seeds) {
      std::vector<RecordEntry> all = suite_record(size, seed);
      for (const bool faults : {false, true}) {
        auto d = driver_record(size, seed, faults, faulty_cfg);
        all.insert(all.end(), d.begin(), d.end());
      }
      for (const auto& e : all) f << e.key << " " << e.values << "\n";
    }
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr, "pinbench: %s\n", why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && end != s && *end == '\0' && s[0] != '-';
}

void print_json(const Outcome& out, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& m : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string write_record_path, seeds_arg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (a == "--corrupt-golden") {
      opt.corrupt_golden = true;
      continue;
    }
    const char* v = value();
    if (!v) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
    } else if (a == "--seconds" && parse_u64(v, n) && n >= 1) {
      opt.seconds = static_cast<double>(n);
    } else if (a == "--trace" && (!std::strcmp(v, "0") || !std::strcmp(v, "1"))) {
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--threads" && parse_u64(v, n) && n >= 1 && n <= 64) {
      opt.threads = static_cast<unsigned>(n);
    } else if (a == "--size" && (!std::strcmp(v, "full") || !std::strcmp(v, "tiny"))) {
      opt.size = v[0] == 't' ? Size::kTiny : Size::kFull;
    } else if (a == "--record") {
      opt.record_path = v;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--faulty-cfg") {
      opt.faulty_cfg = v;
    } else if (a == "--write-record") {
      write_record_path = v;
    } else if (a == "--seeds") {
      seeds_arg = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  // Pool size set here so PINATUBO_THREADS cannot change it.
  pinatubo::ThreadPool::set_global_threads(opt.threads);

  if (!write_record_path.empty()) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t p = 0; p < seeds_arg.size();) {
      const std::size_t q = seeds_arg.find(',', p);
      std::uint64_t n = 0;
      if (!parse_u64(seeds_arg.substr(p, q - p).c_str(), n))
        return usage("bad --seeds");
      seeds.push_back(n);
      p = q == std::string::npos ? seeds_arg.size() : q + 1;
    }
    if (seeds.empty()) return usage("--write-record needs --seeds");
    try {
      return write_record(seeds, write_record_path, opt.faulty_cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pinbench: %s\n", e.what());
      return 1;
    }
  }
  if (opt.workload.empty() || !have_trace)
    return usage("need --workload and --trace");

  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d threads=%u "
              "size=%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              pinatubo::ThreadPool::global_threads(),
              opt.size == Size::kTiny ? "tiny" : "full");
  Outcome out;
  try {
    if (opt.workload == "suite_cpu_baselines") {
      out = run_suite_cpu(opt);
    } else if (opt.workload == "suite_pim_pricing") {
      out = run_suite_pim(opt);
    } else if (opt.workload == "driver_analog") {
      out = run_driver(opt, false);
    } else if (opt.workload == "driver_faults") {
      out = run_driver(opt, true);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    // Set-up itself failed: no measurement to report.
    std::fprintf(stderr, "pinbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : out.info) std::printf("%s\n", line.c_str());
  for (const auto& f : out.failures) std::printf("# FAIL %s\n", f.c_str());
  std::printf("# failed_frac=%.6g (failed %" PRIu64 " of %" PRIu64 ")\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              out.failed, out.attempted);
  for (const Metrics* ms : {&out.end_to_end, &out.per_layer}) {
    for (const auto& m : ms->all()) {
      if (!std::isfinite(m.value)) {
        out.fail(1, "metric " + m.name + " is not finite");
        continue;
      }
      std::printf("# metric %-40s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (out.attempted == 0) out.fail(1, "nothing was attempted");
  Metrics shown = opt.trace ? out.per_layer : out.end_to_end;
  for (const auto& m : shown.all())
    if (!std::isfinite(m.value)) shown.set(m.name, 0.0, m.unit);
  print_json(out, shown);
  return 0;
}
