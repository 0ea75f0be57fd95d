#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {

std::map<std::string, double> SpanRecorder::busy() const {
  std::map<std::string, double> out;
  for (const auto& s : spans_) out[s.layer] += s.t1 - s.t0;
  return out;
}

double SpanRecorder::uncovered_share(
    const std::vector<std::pair<double, double>>& windows) const {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(spans_.size());
  for (const auto& s : spans_) iv.emplace_back(s.t0, s.t1);
  std::sort(iv.begin(), iv.end());
  double total = 0.0, covered = 0.0;
  for (const auto& [w0, w1] : windows) {
    total += w1 - w0;
    // Union of the spans clipped to this window.
    double reach = w0;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach), hi = std::min(b, w1);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
  }
  return total > 0.0 ? 1.0 - covered / total : 0.0;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  pinatubo::obs::TraceSession session(true);
  for (const auto& s : spans_) {
    const auto track = session.track("host/" + s.layer);
    session.span(s.layer, s.t0 * 1e9, (s.t1 - s.t0) * 1e9, track, "host");
  }
  session.write_chrome_json(path);
}

std::string record_key(Size size, std::uint64_t seed, const std::string& item,
                       const std::string& backend) {
  return std::string(size_name(size)) + " " + std::to_string(seed) + " " +
         item + " " + backend;
}

Record load_record(const std::string& path) {
  Record rec;
  if (path.empty()) return rec;
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read the machine record " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key, word, values;
    for (int i = 0; i < 4 && is >> word; ++i) key += (i ? " " : "") + word;
    while (is >> word) values += (values.empty() ? "" : " ") + word;
    if (!values.empty()) rec[key] = values;
  }
  if (rec.empty())
    throw std::runtime_error("the machine record " + path + " has no entries");
  return rec;
}

void check_record(const Record& record, const RunOptions& opt,
                  const std::vector<RecordEntry>& got, Outcome& out) {
  if (opt.record_path.empty()) {
    out.info.push_back("# machine record: none given");
    return;
  }
  const std::string stem =
      std::string(size_name(opt.size)) + " " + std::to_string(opt.seed);
  const bool recorded = std::any_of(record.begin(), record.end(), [&](const auto& kv) {
    return kv.first.rfind(stem + " ", 0) == 0;
  });
  if (!recorded) {
    const bool must = std::find(std::begin(kRecordedSeeds), std::end(kRecordedSeeds),
                                opt.seed) != std::end(kRecordedSeeds);
    if (must) out.fail(1, "machine record has no entries for recorded seed " + stem);
    out.info.push_back("# machine record: seed not recorded, in-run checks only");
    return;
  }
  out.info.push_back("# machine record: checked against " + opt.record_path);
  for (const auto& e : got) {
    const auto it = record.find(e.key);
    if (it == record.end() || it->second != e.values)
      out.fail(e.ops, "machine clock differs from the record: " + e.key + ": " +
                          e.values + " vs " +
                          (it == record.end() ? std::string("(missing)") : it->second));
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back({name, value, unit});
}

void set_zero_layers(Metrics& m) {
  // Every per-layer metric is printed on every workload; a layer this
  // workload does not drive reads 0.
  for (const char* k :
       {"apps.vector_gen_s", "apps.graph_gen_s", "apps.fastbit_gen_s",
        "sim.simd_dram.busy_s", "sim.simd_pcm.busy_s", "sim.sdram.busy_s",
        "sim.acpim.busy_s", "pinatubo.plan_s", "pinatubo.engine_s",
        "verify.check_s", "obs.render_s", "driver.pim_op.busy_s",
        "driver.pim_write.busy_s", "driver.pim_read.busy_s",
        "driver.pim_copy.busy_s", "driver.pim_barrier.busy_s"})
    m.set(k, 0.0, "s");
  for (const char* k :
       {"sim.simd.lines", "sim.simd.stream_lines", "pinatubo.steps.intra",
        "pinatubo.steps.inter_sub", "pinatubo.steps.inter_bank",
        "driver.pim_op.samples", "driver.batches", "driver.steps.intra",
        "driver.steps.inter_sub", "driver.steps.inter_bank",
        "driver.steps.host_read", "reliability.detected",
        "reliability.retries", "reliability.deescalations",
        "reliability.remaps", "reliability.fallbacks"})
    m.set(k, 0.0, "count");
  m.set("sim.simd.ns_per_line", 0.0, "ns");
  m.set("pinatubo.engine_ns_per_step", 0.0, "ns");
  m.set("verify.cost_ratio", 0.0, "ratio");
  m.set("obs.trace_overhead", 0.0, "ratio");
  m.set("coverage.uncovered", 0.0, "ratio");
  m.set("driver.pim_op.p99_ms", 0.0, "ms");
  m.set("driver.bus_bytes", 0.0, "B");
  m.set("mem.sense_rows.r2_ns_per_bit", 0.0, "ns");
  m.set("mem.sense_rows.r8_ns_per_bit", 0.0, "ns");
  m.set("reliability.first_try_frac", 0.0, "ratio");
  for (const char* b : {"simd_dram", "simd_pcm", "sdram", "acpim"}) {
    m.set(std::string("machine.") + b + ".time_ns", 0.0, "ns");
    m.set(std::string("machine.") + b + ".energy_pj", 0.0, "pJ");
  }
  for (const char* b : {"pin128", "pin2", "driver"}) {
    const std::string p = std::string("machine.") + b;
    m.set(p + ".time_ns", 0.0, "ns");
    m.set(p + ".energy_pj", 0.0, "pJ");
    for (const char* c : {"intra", "inter_sub", "inter_bank", "host_read"})
      m.set(p + ".class_ns." + c, 0.0, "ns");
    m.set(p + ".bus_bytes", 0.0, "B");
    m.set(p + ".overlap", 0.0, "ratio");
  }
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
