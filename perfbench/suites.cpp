// The two suite workloads: the Table 1 suite priced by the SIMD baselines
// (suite_cpu_baselines) and by the PIM backends (suite_pim_pricing).
//
// Every (trace, backend) result is a machine-clock value, so it is checked
// for exact equality: against the first pass of the run, against the
// recomposed Pinatubo pricing, and against machine_record.txt when the
// seed is recorded there.
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "apps/bfs_bitmap.hpp"
#include "apps/bitmap_index.hpp"
#include "apps/graph.hpp"
#include "apps/vector_workload.hpp"
#include "apps/workloads.hpp"
#include "bench.hpp"
#include "obs/schedule_trace.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/engine.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/cache.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace pinatubo;

// ---- the suite ---------------------------------------------------------------

/// Table 1 at benchmark scale.  The paper-size suite takes ~12 s to
/// generate and ~45 s to price on the SIMD baselines, so every entry is
/// shrunk by a fixed factor: Vector counts as paper_workloads(1/64) does,
/// graph node counts and index rows by 2^shift.  Each group keeps its
/// shape (fan-ins, frontier profile, query mix), so the cache-walking and
/// streaming paths stay represented.
struct SuiteParams {
  unsigned vector_drop;   ///< log2 of the Vector count shrink
  unsigned graph_shift;   ///< graph nodes >>= shift
  unsigned index_shift;   ///< index rows >>= shift
  std::vector<unsigned> queries;
};

SuiteParams suite_params(Size s) {
  if (s == Size::kTiny) return {10, 7, 7, {24, 48, 72}};
  return {6, 4, 4, {240, 480, 720}};
}

struct GenTimes {
  double vector_s = 0, graph_s = 0, fastbit_s = 0;
  double total() const { return vector_s + graph_s + fastbit_s; }
};

std::vector<apps::NamedTrace> make_suite(const SuiteParams& p,
                                         std::uint64_t seed, GenTimes& gt) {
  std::vector<apps::NamedTrace> out;
  auto t0 = Clock::now();
  for (apps::VectorSpec spec : apps::paper_vector_specs()) {
    spec.count_log -= std::min(spec.count_log - spec.rows_log, p.vector_drop);
    out.push_back({"Vector", spec.name(), apps::vector_trace(spec, seed)});
  }
  gt.vector_s = seconds_since(t0);

  t0 = Clock::now();
  for (auto preset : {apps::dblp2010_like(), apps::eswiki2013_like(),
                      apps::amazon2008_like()}) {
    preset.gen.nodes >>= p.graph_shift;
    const apps::Graph g = apps::build_dataset(preset, seed);
    auto res = apps::bitmap_bfs(g);
    res.trace.name = preset.name;
    out.push_back({"Graph", preset.name, std::move(res.trace)});
  }
  gt.graph_s = seconds_since(t0);

  t0 = Clock::now();
  apps::IndexConfig cfg;
  cfg.rows >>= p.index_shift;
  const apps::BitmapIndex index(cfg, seed);
  for (const unsigned n : p.queries) {
    const auto queries = apps::generate_queries(cfg, n, seed + n);
    auto res = apps::run_queries(index, queries);
    res.trace.name = std::to_string(n);
    out.push_back({"Fastbit", std::to_string(n), std::move(res.trace)});
  }
  gt.fastbit_s = seconds_since(t0);
  return out;
}

/// Generates the suite kSetupReps times (set-up time is the median) and keeps
/// the last copy; every copy must be identical, since generation is seeded.
std::vector<apps::NamedTrace> setup_suite(const RunOptions& opt, Outcome& out,
                                          GenTimes& median_gt) {
  const SuiteParams params = suite_params(opt.size);
  std::vector<double> total, vec, graph, fb;
  std::vector<apps::NamedTrace> suite;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    GenTimes gt;
    auto s = make_suite(params, opt.seed, gt);
    total.push_back(gt.total());
    vec.push_back(gt.vector_s);
    graph.push_back(gt.graph_s);
    fb.push_back(gt.fastbit_s);
    if (!suite.empty()) {
      for (std::size_t i = 0; i < s.size(); ++i) {
        const auto& a = s[i].trace;
        const auto& b = suite[i].trace;
        bool same = a.ops.size() == b.ops.size() &&
                    a.scalar_ops == b.scalar_ops &&
                    a.scalar_bytes == b.scalar_bytes;
        for (std::size_t k = 0; same && k < a.ops.size(); ++k)
          same = a.ops[k].srcs == b.ops[k].srcs && a.ops[k].dst == b.ops[k].dst &&
                 a.ops[k].bits == b.ops[k].bits && a.ops[k].op == b.ops[k].op;
        if (!same) out.fail(a.ops.size(), "generation not deterministic: " + a.name);
      }
    }
    suite = std::move(s);
  }
  out.end_to_end.set("setup_s", median(total), "s");
  median_gt = {median(vec), median(graph), median(fb)};
  std::uint64_t ops = 0;
  for (const auto& t : suite) ops += t.trace.op_count();
  char buf[160];
  std::snprintf(buf, sizeof buf, "# suite size=%s traces=%zu ops=%" PRIu64,
                size_name(opt.size), suite.size(), ops);
  out.info.push_back(buf);
  return suite;
}

// ---- machine-clock results -------------------------------------------------

struct Priced {
  double bit_ns = 0, bit_pj = 0, scalar_ns = 0, scalar_pj = 0;
  std::uint64_t intra = 0, inter_sub = 0, inter_bank = 0;

  bool operator==(const Priced&) const = default;
};

Priced priced(const sim::BackendResult& r) {
  return {r.bitwise.time_ns, r.bitwise.energy.total_pj(), r.scalar.time_ns,
          r.scalar.energy.total_pj()};
}

std::string describe(const Priced& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%a %a %a %a %" PRIu64 " %" PRIu64 " %" PRIu64, p.bit_ns,
                p.bit_pj, p.scalar_ns, p.scalar_pj, p.intra, p.inter_sub,
                p.inter_bank);
  return buf;
}

// ---- backends ----------------------------------------------------------------

/// One priced backend of a workload plus its outside-in layer split.
struct Lane {
  std::string key;    ///< metric key: simd_dram, pin128, ...
  std::string layer;  ///< span name of a whole execute() call
  std::unique_ptr<sim::Backend> backend;
  // Pinatubo only: the same pricing recomposed from its public parts.
  bool pinatubo = false;
  core::PinatuboBackendConfig pin_cfg;
  std::unique_ptr<core::RowAllocator> alloc;
  std::unique_ptr<core::OpScheduler> sched;
};

Lane plain_lane(std::string key, std::unique_ptr<sim::Backend> backend) {
  Lane l;
  l.key = std::move(key);
  l.layer = "sim." + l.key;
  l.backend = std::move(backend);
  return l;
}

Lane simd_lane(sim::MemKind kind) {
  return plain_lane(kind == sim::MemKind::kDram ? "simd_dram" : "simd_pcm",
                    std::make_unique<sim::SimdBackend>(kind));
}

Lane pin_lane(unsigned max_rows) {
  Lane l;
  l.key = "pin" + std::to_string(max_rows);
  l.layer = "pinatubo.execute";
  l.pinatubo = true;
  l.pin_cfg.tech = nvm::Tech::kPcm;
  l.pin_cfg.max_rows = max_rows;
  l.pin_cfg.policy = core::AllocPolicy::kPimAware;
  l.pin_cfg.serial = false;
  // Set explicitly: the build-type default would be kOff in Release.
  l.pin_cfg.verify = reliability::VerifyLevel::kAlways;
  l.backend = std::make_unique<core::PinatuboBackend>(mem::Geometry{}, l.pin_cfg);
  l.alloc = std::make_unique<core::RowAllocator>(mem::Geometry{}, l.pin_cfg.policy);
  l.sched = std::make_unique<core::OpScheduler>(
      mem::Geometry{}, core::SchedulerConfig{max_rows, l.pin_cfg.tech});
  return l;
}

/// Layer totals of the recomposed Pinatubo pricing.
struct PinSplit {
  double plan_s = 0, engine_s = 0, verify_s = 0, render_s = 0;
  std::uint64_t steps[core::kStepKindCount] = {};
};

/// Machine-clock totals of one backend over the suite (traced run).
struct MachineTotals {
  double time_ns = 0, energy_pj = 0, bus_bytes = 0, serial_ns = 0;
  double class_ns[core::kStepKindCount] = {};
};

/// PinatuboBackend::execute taken apart: virtual_placement + plan, engine,
/// verifier, schedule rendering, host scalar remainder — each timed as a
/// span of its own layer.  Must price bit-identically to execute().
Priced price_recomposed(Lane& l, const sim::OpTrace& trace, SpanRecorder& rec,
                        obs::TraceSession& render, double& render_t0,
                        PinSplit& split, MachineTotals* mt) {
  const mem::Geometry geo{};
  const core::PinatuboCostModel model(geo, l.pin_cfg.tech, trace.result_density);
  Priced p;
  std::vector<core::OpPlan> plans;
  split.plan_s += timed(rec, "pinatubo.plan", [&] {
    plans.reserve(trace.ops.size());
    for (const auto& op : trace.ops) {
      std::vector<core::Placement> srcs;
      srcs.reserve(op.srcs.size());
      for (const auto id : op.srcs)
        srcs.push_back(l.alloc->virtual_placement(id, op.bits));
      const core::Placement dst = l.alloc->virtual_placement(op.dst, op.bits);
      plans.push_back(l.sched->plan(op.op, srcs, dst, op.host_reads_result));
    }
  });
  for (const auto& plan : plans) {
    p.intra += plan.count(core::StepKind::kIntraSub);
    p.inter_sub += plan.count(core::StepKind::kInterSub);
    p.inter_bank += plan.count(core::StepKind::kInterBank);
  }
  core::ExecutionEngine::Result r;
  split.engine_s += timed(rec, "pinatubo.engine", [&] {
    r = core::ExecutionEngine(model, core::EngineOptions{l.pin_cfg.serial})
            .run(plans);
  });
  for (std::size_t k = 0; k < core::kStepKindCount; ++k)
    split.steps[k] += r.profile.steps[k];
  bool verified = true;
  split.verify_s += timed(rec, "verify.check", [&] {
    const verify::Verifier verifier(model, l.pin_cfg.max_rows);
    verified = verifier.check(plans, r, l.pin_cfg.serial).ok();
  });
  if (!verified) p.intra = ~0ull;  // forces a mismatch against execute()
  split.render_s += timed(rec, "obs.render", [&] {
    render_t0 = obs::render_schedule(render, plans, r, render_t0);
  });
  mem::Cost scalar;
  timed(rec, "sim.scalar", [&] {
    scalar = sim::SimdCpuModel({}, sim::MemKind::kPcm)
                 .scalar(trace.scalar_ops, trace.scalar_bytes);
  });
  p.bit_ns = r.cost.time_ns;
  p.bit_pj = r.cost.energy.total_pj();
  p.scalar_ns = scalar.time_ns;
  p.scalar_pj = scalar.energy.total_pj();
  if (mt) {
    mt->time_ns += r.cost.time_ns;
    mt->energy_pj += r.cost.energy.total_pj();
    mt->bus_bytes += static_cast<double>(r.profile.bus_bytes);
    mt->serial_ns += r.serial_time_ns;
    for (std::size_t k = 0; k < core::kStepKindCount; ++k)
      mt->class_ns[k] += r.profile.time_ns[k];
  }
  return p;
}

/// execute() through the backend's public interface, with the Pinatubo
/// step-class counts attached.
Priced price_execute(Lane& l, const sim::OpTrace& trace) {
  Priced p = priced(l.backend->execute(trace));
  if (l.pinatubo) {
    const auto& cc =
        static_cast<core::PinatuboBackend&>(*l.backend).last_class_counts();
    p.intra = cc.intra;
    p.inter_sub = cc.inter_sub;
    p.inter_bank = cc.inter_bank;
  }
  return p;
}

/// Lines the SIMD model walks through its cache simulator, by the same
/// direct-path rule SimdCpuModel::bulk_op applies (above 2^20 accesses an
/// op takes the closed-form streaming shortcut).
void count_lines(const sim::OpTrace& t, std::uint64_t& walked,
                 std::uint64_t& streamed) {
  static const std::uint64_t line = sim::haswell_cache_config()[0].line_bytes;
  for (const auto& op : t.ops) {
    const std::uint64_t bytes = (op.bits + 63) / 64 * 8;
    const std::uint64_t accesses =
        (bytes + line - 1) / line * (op.srcs.size() + 1);
    (accesses > (1u << 20) ? streamed : walked) += accesses;
  }
}

std::vector<Lane> make_lanes(bool simd, bool pim) {
  std::vector<Lane> lanes;
  if (simd) {
    lanes.push_back(simd_lane(sim::MemKind::kDram));
    lanes.push_back(simd_lane(sim::MemKind::kPcm));
  }
  if (pim) {
    lanes.push_back(pin_lane(128));
    lanes.push_back(pin_lane(2));
    lanes.push_back(plain_lane("sdram", std::make_unique<sim::SdramBackend>()));
    lanes.push_back(plain_lane("acpim", std::make_unique<sim::AcPimBackend>()));
  }
  return lanes;
}

Outcome run_suite(const RunOptions& opt, bool pim) {
  Outcome out;
  const Record record = load_record(opt.record_path);
  GenTimes gt;
  const auto suite = setup_suite(opt, out, gt);

  std::vector<Lane> lanes = make_lanes(!pim, pim);

  // ---- measured phase ----------------------------------------------------
  // Whole passes over the suite until `seconds` have elapsed.  In a traced
  // run, passes alternate untraced / traced (the difference is the tracing
  // overhead) and traced passes price Pinatubo through its recomposed parts.
  SpanRecorder rec;
  obs::TraceSession render(true);
  double render_t0 = 0.0;
  PinSplit split;
  std::vector<std::vector<Priced>> ref(suite.size(),
                                       std::vector<Priced>(lanes.size()));
  // Fastest untraced call per (trace, backend) over the passes: on a shared
  // machine the minimum filters out time stolen by other processes.
  std::vector<std::vector<double>> best(suite.size(),
                                        std::vector<double>(lanes.size(), 1e300));
  std::vector<std::pair<double, double>> traced_windows;
  double untraced_s = 0, traced_s = 0;
  unsigned untraced_passes = 0, traced_passes = 0;
  std::uint64_t walked = 0, streamed = 0, ops_done = 0;
  double measured_s = 0;
  unsigned pass = 0;
  while (pass < (opt.trace ? 2u : 1u) || measured_s < opt.seconds) {
    const bool traced = opt.trace && pass % 2 == 1;
    rec.enabled = traced;
    const double w0 = rec.now();
    for (std::size_t t = 0; t < suite.size(); ++t) {
      const auto& trace = suite[t].trace;
      for (std::size_t b = 0; b < lanes.size(); ++b) {
        Lane& l = lanes[b];
        Priced p;
        const double t0 = rec.now();
        try {
          if (traced && l.pinatubo) {
            p = price_recomposed(l, trace, rec, render, render_t0, split,
                                 nullptr);
          } else {
            timed(rec, l.layer.c_str(), [&] { p = price_execute(l, trace); });
          }
        } catch (const std::exception& e) {
          p.intra = ~0ull;  // never equals a real result
          out.fail(trace.op_count(), suite[t].name + " on " + l.key +
                                         " threw: " + e.what());
        }
        if (!traced) best[t][b] = std::min(best[t][b], rec.now() - t0);
        ops_done += trace.op_count();
        out.attempted += trace.op_count();
        if (pass == 0) {  // never traced
          ref[t][b] = p;
        } else if (!(p == ref[t][b])) {
          out.fail(trace.op_count(), "pass " + std::to_string(pass) + ": " +
                                         suite[t].name + " on " + l.key +
                                         " differs from pass 0");
        }
      }
      if (traced && !pim) {
        std::uint64_t w = 0, s = 0;
        count_lines(trace, w, s);
        walked += w * lanes.size();
        streamed += s * lanes.size();
      }
    }
    const double w1 = rec.now();
    measured_s += w1 - w0;
    render.clear();  // keeps memory flat; the spans are not written out
    render_t0 = 0.0;
    if (traced) {
      traced_windows.emplace_back(w0, w1);
      traced_s += w1 - w0;
      ++traced_passes;
    } else {
      untraced_s += w1 - w0;
      ++untraced_passes;
    }
    ++pass;
  }
  rec.enabled = false;

  // ---- checks after the measured phase -----------------------------------
  // The recomposed Pinatubo pricing must equal execute() on every trace.
  // Traced passes compared it already; every run recomposes once more here,
  // which also yields the machine-clock totals.
  std::vector<MachineTotals> mt(lanes.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      Lane& l = lanes[b];
      if (!l.pinatubo) {
        mt[b].time_ns += ref[t][b].bit_ns;
        mt[b].energy_pj += ref[t][b].bit_pj;
        continue;
      }
      SpanRecorder off;
      PinSplit unused;
      obs::TraceSession no_render;
      double t0 = 0.0;
      const Priced p = price_recomposed(l, suite[t].trace, off, no_render, t0,
                                        unused, &mt[b]);
      out.attempted += suite[t].trace.op_count();
      if (!(p == ref[t][b]))
        out.fail(suite[t].trace.op_count(),
                 "recomposed pricing differs from execute(): " +
                     suite[t].name + " on " + l.key + ": " + describe(p) +
                     " vs " + describe(ref[t][b]));
    }
  }
  std::vector<RecordEntry> got;
  for (std::size_t t = 0; t < suite.size(); ++t)
    for (std::size_t b = 0; b < lanes.size(); ++b)
      got.push_back({record_key(opt.size, opt.seed, suite[t].name,
                                lanes[b].backend->name()),
                     describe(ref[t][b]), suite[t].trace.op_count()});
  check_record(record, opt, got, out);

  // ---- metrics --------------------------------------------------------------
  // Latency samples: a backend prices a whole trace in one call, so each
  // op's sample is its call's fastest untraced time over the call's ops.
  std::vector<double> lat;
  double pass_s = 0;
  std::uint64_t pass_ops = 0;
  for (std::size_t t = 0; t < suite.size(); ++t) {
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      const std::size_t n = suite[t].trace.op_count();
      lat.insert(lat.end(), n, best[t][b] * 1e3 / static_cast<double>(n));
      pass_s += best[t][b];
      pass_ops += suite[t].trace.op_count();
    }
  }
  out.end_to_end.set("ops_per_s", static_cast<double>(pass_ops) / pass_s,
                     "1/s");
  out.end_to_end.set("op_p50_ms", percentile(lat, 50), "ms");
  out.end_to_end.set("op_p90_ms", percentile(lat, 90), "ms");
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "# measured passes=%u (untraced %u) seconds=%.3f ops=%" PRIu64
                " latency_samples=%zu",
                pass, untraced_passes, measured_s, ops_done, lat.size());
  out.info.push_back(buf);

  Metrics& m = out.per_layer;
  set_zero_layers(m);
  m.set("apps.vector_gen_s", gt.vector_s, "s");
  m.set("apps.graph_gen_s", gt.graph_s, "s");
  m.set("apps.fastbit_gen_s", gt.fastbit_s, "s");
  const auto busy = rec.busy();
  auto busy_of = [&](const std::string& k) {
    const auto it = busy.find(k);
    return it == busy.end() ? 0.0 : it->second;
  };
  for (const char* k : {"simd_dram", "simd_pcm", "sdram", "acpim"})
    m.set(std::string("sim.") + k + ".busy_s", busy_of(std::string("sim.") + k),
          "s");
  const double simd_s = busy_of("sim.simd_dram") + busy_of("sim.simd_pcm");
  m.set("sim.simd.lines", static_cast<double>(walked), "count");
  m.set("sim.simd.stream_lines", static_cast<double>(streamed), "count");
  m.set("sim.simd.ns_per_line", walked ? simd_s * 1e9 / walked : 0.0, "ns");
  m.set("pinatubo.plan_s", split.plan_s, "s");
  m.set("pinatubo.engine_s", split.engine_s, "s");
  std::uint64_t steps = 0;
  for (const auto s : split.steps) steps += s;
  m.set("pinatubo.engine_ns_per_step",
        steps ? split.engine_s * 1e9 / static_cast<double>(steps) : 0.0, "ns");
  m.set("pinatubo.steps.intra",
        static_cast<double>(split.steps[core::step_index(core::StepKind::kIntraSub)]),
        "count");
  m.set("pinatubo.steps.inter_sub",
        static_cast<double>(split.steps[core::step_index(core::StepKind::kInterSub)]),
        "count");
  m.set("pinatubo.steps.inter_bank",
        static_cast<double>(split.steps[core::step_index(core::StepKind::kInterBank)]),
        "count");
  m.set("verify.check_s", split.verify_s, "s");
  const double priced_s = split.plan_s + split.engine_s;
  m.set("verify.cost_ratio", priced_s > 0 ? split.verify_s / priced_s : 0.0,
        "ratio");
  m.set("obs.render_s", split.render_s, "s");
  if (opt.trace && untraced_passes && traced_passes)
    m.set("obs.trace_overhead",
          (traced_s / traced_passes) / (untraced_s / untraced_passes) - 1.0,
          "ratio");
  m.set("coverage.uncovered", rec.uncovered_share(traced_windows), "ratio");
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    const std::string p = "machine." + lanes[b].key;
    m.set(p + ".time_ns", mt[b].time_ns, "ns");
    m.set(p + ".energy_pj", mt[b].energy_pj, "pJ");
    if (!lanes[b].pinatubo) continue;
    const char* cls[] = {"intra", "inter_sub", "inter_bank", "host_read"};
    for (std::size_t k = 0; k < core::kStepKindCount; ++k)
      m.set(p + ".class_ns." + cls[k], mt[b].class_ns[k], "ns");
    m.set(p + ".bus_bytes", mt[b].bus_bytes, "B");
    m.set(p + ".overlap", mt[b].time_ns > 0 ? mt[b].serial_ns / mt[b].time_ns : 0.0,
          "ratio");
  }
  if (opt.trace && !opt.out_dir.empty()) {
    // Re-enable only to write: the spans were kept in memory all along.
    rec.write_chrome_json(opt.out_dir + "/" + opt.workload + "-" +
                          std::to_string(opt.seed) + ".host.json");
  }
  return out;
}

}  // namespace

Outcome run_suite_cpu(const RunOptions& opt) { return run_suite(opt, false); }
Outcome run_suite_pim(const RunOptions& opt) { return run_suite(opt, true); }

std::vector<RecordEntry> suite_record(Size size, std::uint64_t seed) {
  GenTimes gt;
  const auto suite = make_suite(suite_params(size), seed, gt);
  std::vector<Lane> lanes = make_lanes(true, true);
  std::vector<RecordEntry> out;
  for (const auto& t : suite)
    for (auto& l : lanes)
      out.push_back({record_key(size, seed, t.name, l.backend->name()),
                     describe(price_execute(l, t.trace)), t.trace.op_count()});
  return out;
}

}  // namespace perfbench
