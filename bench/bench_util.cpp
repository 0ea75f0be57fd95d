#include "bench_util.hpp"

#include <cstdio>
#include <sstream>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "sim/simd_backend.hpp"

namespace pinatubo::bench {

SuiteRun run_suite(sim::Backend& backend,
                   const std::vector<apps::NamedTrace>& workloads) {
  SuiteRun run;
  run.backend = backend.name();
  run.results.reserve(workloads.size());
  for (const auto& w : workloads) run.results.push_back(backend.execute(w.trace));
  return run;
}

Baselines run_baselines(const std::vector<apps::NamedTrace>& workloads) {
  sim::SimdBackend dram(sim::MemKind::kDram);
  sim::SimdBackend pcm(sim::MemKind::kPcm);
  return {run_suite(dram, workloads), run_suite(pcm, workloads)};
}

std::vector<double> RatioMatrix::column(std::size_t b) const {
  std::vector<double> col;
  col.reserve(ratios.size());
  for (const auto& row : ratios) col.push_back(row.at(b));
  return col;
}

RatioMatrix build_matrix(const std::vector<apps::NamedTrace>& workloads,
                         const Baselines& baselines,
                         const std::vector<SuiteRun>& backends,
                         const std::vector<bool>& vs_dram,
                         const Metric& metric,
                         const std::vector<std::size_t>& rows) {
  PIN_CHECK(backends.size() == vs_dram.size());
  std::vector<std::size_t> picked = rows;
  if (picked.empty())
    for (std::size_t w = 0; w < workloads.size(); ++w) picked.push_back(w);
  RatioMatrix m;
  for (const std::size_t w : picked) {
    m.workload_groups.push_back(workloads.at(w).group);
    m.workload_names.push_back(workloads[w].name);
  }
  m.ratios.resize(picked.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    m.backend_names.push_back(backends[b].backend);
    const auto& base = vs_dram[b] ? baselines.simd_dram : baselines.simd_pcm;
    std::vector<double> col;
    for (const std::size_t w : picked) {
      const double ref = metric(base.results.at(w));
      const double val = metric(backends[b].results.at(w));
      PIN_CHECK_MSG(val > 0, backends[b].backend << " on " << workloads[w].name);
      col.push_back(ref / val);
    }
    m.gmean.push_back(geomean(col));
    for (std::size_t i = 0; i < picked.size(); ++i)
      m.ratios[i].push_back(col[i]);
  }
  return m;
}

Table matrix_table(const std::string& title, const RatioMatrix& m) {
  Table t(title);
  std::vector<std::string> header{"group", "workload"};
  for (const auto& b : m.backend_names) header.push_back(b);
  t.set_header(header);
  for (std::size_t w = 0; w < m.workload_names.size(); ++w) {
    std::vector<std::string> row{m.workload_groups[w], m.workload_names[w]};
    for (const double r : m.ratios[w]) row.push_back(Table::mult(r));
    t.add_row(row);
  }
  t.add_separator();
  std::vector<std::string> grow{"", "Gmean"};
  for (const double g : m.gmean) grow.push_back(Table::mult(g));
  t.add_row(grow);
  return t;
}

namespace {

std::string json_string(const std::string& s) {
  std::ostringstream os;
  obs::append_json_string(os, s);
  return os.str();
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

void JsonReport::add(const std::string& key, double value) {
  fields_.push_back(json_string(key) + ": " + json_number(value));
}

void JsonReport::add(const std::string& key, const std::string& value) {
  fields_.push_back(json_string(key) + ": " + json_string(value));
}

void JsonReport::add_array(const std::string& key,
                           const std::vector<double>& values) {
  std::string out = json_string(key) + ": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json_number(values[i]);
  }
  fields_.push_back(out + "]");
}

void JsonReport::add_matrix(const std::string& key, const RatioMatrix& m) {
  std::ostringstream os;
  os << json_string(key) << ": {\"workloads\": [";
  for (std::size_t i = 0; i < m.workload_names.size(); ++i)
    os << (i ? ", " : "") << json_string(m.workload_names[i]);
  os << "], \"backends\": [";
  for (std::size_t i = 0; i < m.backend_names.size(); ++i)
    os << (i ? ", " : "") << json_string(m.backend_names[i]);
  os << "], \"ratios\": [";
  for (std::size_t w = 0; w < m.ratios.size(); ++w) {
    os << (w ? ", " : "") << "[";
    for (std::size_t b = 0; b < m.ratios[w].size(); ++b)
      os << (b ? ", " : "") << json_number(m.ratios[w][b]);
    os << "]";
  }
  os << "], \"gmean\": [";
  for (std::size_t i = 0; i < m.gmean.size(); ++i)
    os << (i ? ", " : "") << json_number(m.gmean[i]);
  os << "]}";
  fields_.push_back(os.str());
}

void JsonReport::write(const std::string& path) const {
  if (path.empty()) return;
  std::ostringstream os;
  os << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i)
    os << "  " << fields_[i] << (i + 1 < fields_.size() ? "," : "") << "\n";
  os << "}\n";
  write_text_file(path, os.str());
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace pinatubo::bench
