// Shared plumbing for the figure-reproduction benches: runs the backend
// matrix over the paper's workload suite and renders Fig. 10/11-style
// tables (one row per workload, one column per architecture, Gmean last).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "common/table.hpp"
#include "sim/backend.hpp"

namespace pinatubo::bench {

/// One backend's results over the whole workload suite.
struct SuiteRun {
  std::string backend;
  std::vector<sim::BackendResult> results;  // aligned with the workloads
};

/// Runs `backend` over every workload.
SuiteRun run_suite(sim::Backend& backend,
                   const std::vector<apps::NamedTrace>& workloads);

/// What Fig. 10/11 normalize against: S-DRAM compares to SIMD on DRAM,
/// the PCM-resident architectures to SIMD on PCM.
struct Baselines {
  SuiteRun simd_dram;
  SuiteRun simd_pcm;
};

Baselines run_baselines(const std::vector<apps::NamedTrace>& workloads);

/// Ratio table (speedup or energy saving), paper layout: rows = workloads
/// plus Gmean, columns = architectures.
struct RatioMatrix {
  std::vector<std::string> workload_groups;
  std::vector<std::string> workload_names;
  std::vector<std::string> backend_names;
  std::vector<std::vector<double>> ratios;  // [row][backend]
  std::vector<double> gmean;                // per backend, over the rows

  /// Backend `b`'s ratio on every row, in row order.
  std::vector<double> column(std::size_t b) const;
};

using Metric = std::function<double(const sim::BackendResult&)>;

/// ratios[i][b] = metric(baseline for b) / metric(backend b) on workload
/// rows[i]; an empty `rows` takes every workload.  `vs_dram[b]` picks
/// SIMD-on-DRAM as backend b's baseline, else SIMD-on-PCM.
RatioMatrix build_matrix(const std::vector<apps::NamedTrace>& workloads,
                         const Baselines& baselines,
                         const std::vector<SuiteRun>& backends,
                         const std::vector<bool>& vs_dram,
                         const Metric& metric,
                         const std::vector<std::size_t>& rows = {});

/// Renders the matrix as a table (rows: workloads + Gmean).
Table matrix_table(const std::string& title, const RatioMatrix& m);

/// Minimal JSON object writer for machine-readable bench output
/// (BENCH_*.json files consumed by the perf-trajectory tooling).
class JsonReport {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  void add_array(const std::string& key, const std::vector<double>& values);
  /// Emits the ratio matrix as {"workloads", "backends", "ratios", "gmean"}
  /// under `key`.
  void add_matrix(const std::string& key, const RatioMatrix& m);

  /// Writes `{ ... }` to `path` and prints a one-line note; no-op when
  /// `path` is empty (callers pass their absent `--json` as "").
  void write(const std::string& path) const;

 private:
  std::vector<std::string> fields_;  // pre-rendered `"key": value` pairs
};

}  // namespace pinatubo::bench
