// Fault-injection campaign: random bulk bitwise ops on a faulty NVM array
// against a host-side golden model (DESIGN.md §10).
//
// Build & run:  ./examples/fault_campaign [configs/faulty.cfg] [k=v ...]
//                                         [--json out.json]
//                                         [--trace-out trace.json]
//                                         [--corrupt]
//
// Default mode exercises the full recovery ladder (verify -> retry ->
// de-escalate -> remap -> CPU fallback) and FAILS (exit 1) if any result
// differs from the golden model or if no fault was ever detected — the
// campaign must prove both that faults happened and that none escaped.
// `--corrupt` turns all detection off with the SAME fault seed and fails
// unless corruption becomes observable — the control experiment.
//
// Campaign keys (on top of the fault.*/verify.*/retry.* policy block):
//   campaign.ops      ops to run (default 200)
//   campaign.vectors  live vectors (default 24)
//   campaign.seed     op-stream seed (default 7)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"

using namespace pinatubo;

int main(int argc, char** argv) {
  // Campaign defaults model an end-of-life PCM corner: healthy-shape
  // Monte-Carlo yield is ~1 (ber_from_yield ~ 0), so the campaign sets the
  // stressed rates explicitly.  Files/overrides replace them.
  // stuck_rate is per CELL and a rank-row spans 2^19 of them — 1e-7 puts
  // ~5% of rank-rows at birth defects, the regime row-sparing handles
  // (higher rates need word-level ECC, which this machine doesn't model).
  Config cfg = Config::from_string(
      "fault.enabled = true\n"
      "fault.stuck_rate = 1e-7\n"
      "fault.sense_ber = 1e-5\n");
  std::string json_path, trace_path;
  bool corrupt = false;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto path_arg = [&](const char* name, std::string& out) {
      const std::string pfx = std::string(name) + "=";
      if (arg.rfind(pfx, 0) == 0) {
        out = arg.substr(pfx.size());
        return true;
      }
      if (arg == name && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    if (path_arg("--json", json_path) || path_arg("--trace-out", trace_path))
      continue;
    if (arg == "--corrupt") {
      corrupt = true;
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
  ThreadPool::set_global_threads(
      parse_thread_count(cfg.get_or("threads", "0"), "threads"));

  reliability::Policy policy = reliability::policy_from_config(cfg);
  if (corrupt) {
    // Same chip, same fault seed, eyes closed.
    policy.verify = {};
  }
  std::printf("fault campaign — %s mode\n",
              corrupt ? "corrupt (detection off)" : "recover");
  for (const auto& [k, v] : reliability::describe(policy))
    std::printf("  %-24s %s\n", k.c_str(), v.c_str());

  const mem::Geometry geo = mem::geometry_from_config(cfg);
  core::PimRuntime::Options opts;
  opts.tech = nvm::tech_from_string(cfg.get_or("tech", "pcm"));
  opts.max_rows = static_cast<unsigned>(cfg.get_u64("max_rows", 128));
  opts.reliability = policy;
  core::PimRuntime pim(geo, opts);
  obs::TraceSession trace(!trace_path.empty());
  pim.set_trace(&trace);

  const auto n_ops = cfg.get_u64("campaign.ops", 200);
  const auto n_vecs =
      static_cast<std::size_t>(cfg.get_u64("campaign.vectors", 24));
  Rng rng(cfg.get_u64("campaign.seed", 7));

  // One-stripe vectors co-locate in one subarray: every op takes the
  // intra-subarray (analog, fault-prone) path.
  const std::uint64_t bits = geo.sense_step_bits();
  std::vector<core::PimRuntime::Handle> vecs(n_vecs);
  std::vector<BitVector> golden(n_vecs);  // the host-side ground truth
  for (std::size_t i = 0; i < n_vecs; ++i) {
    vecs[i] = pim.pim_malloc(bits);
    golden[i] = BitVector::random(bits, 0.3, rng);
    pim.pim_write(vecs[i], golden[i]);
  }

  std::uint64_t wrong = 0;
  for (std::uint64_t it = 0; it < n_ops; ++it) {
    // Mixed op stream; OR fan-in up to 8 keeps wide activations common
    // without making every one hopeless at the stressed BER.
    const unsigned pick = static_cast<unsigned>(rng.next() % 8);
    BitOp op = BitOp::kOr;
    std::size_t fan = 2 + rng.next() % 7;
    if (pick == 5) op = BitOp::kAnd, fan = 2;
    if (pick == 6) op = BitOp::kXor, fan = 2;
    if (pick == 7) op = BitOp::kInv, fan = 1;
    // Distinct source vectors (operands must sit on distinct rows).
    std::vector<std::size_t> idx(n_vecs);
    for (std::size_t i = 0; i < n_vecs; ++i) idx[i] = i;
    for (std::size_t i = 0; i < fan; ++i) {
      const std::size_t j = i + rng.next() % (n_vecs - i);
      std::swap(idx[i], idx[j]);
    }
    const std::size_t dst = idx[rng.next() % fan];  // in-place sometimes
    std::vector<core::PimRuntime::Handle> srcs;
    std::vector<const BitVector*> gsrcs;
    for (std::size_t i = 0; i < fan; ++i) {
      srcs.push_back(vecs[idx[i]]);
      gsrcs.push_back(&golden[idx[i]]);
    }
    pim.pim_op(op, srcs, vecs[dst]);
    golden[dst] = BitVector::reduce(op, gsrcs);
    if (pim.pim_read(vecs[dst]) != golden[dst]) ++wrong;
  }

  const auto& st = pim.stats();
  const auto* fm = pim.fault_model();
  std::printf(
      "\nops %llu  wrong %llu  detected %llu  retries %llu  deesc %llu  "
      "remaps %llu  fallbacks %llu\n",
      static_cast<unsigned long long>(n_ops),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(st.detected_faults),
      static_cast<unsigned long long>(st.retries),
      static_cast<unsigned long long>(st.deescalations),
      static_cast<unsigned long long>(st.remaps),
      static_cast<unsigned long long>(st.fallbacks));
  std::printf(
      "flipped words %llu  wearout cells %llu  remapped rows %zu  "
      "time %.1f ns (cpu-fallback %.1f ns)\n",
      static_cast<unsigned long long>(fm ? fm->flipped_words() : 0),
      static_cast<unsigned long long>(fm ? fm->wearout_cells() : 0),
      pim.memory().remapped_rows(), pim.cost().time_ns,
      st.fallback_time_ns);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"mode\": \"" << (corrupt ? "corrupt" : "recover") << "\",\n"
        << "  \"ops\": " << n_ops << ",\n"
        << "  \"wrong_results\": " << wrong << ",\n"
        << "  \"detected_faults\": " << st.detected_faults << ",\n"
        << "  \"retries\": " << st.retries << ",\n"
        << "  \"deescalations\": " << st.deescalations << ",\n"
        << "  \"remaps\": " << st.remaps << ",\n"
        << "  \"fallbacks\": " << st.fallbacks << ",\n"
        << "  \"flipped_words\": " << (fm ? fm->flipped_words() : 0) << ",\n"
        << "  \"wearout_cells\": " << (fm ? fm->wearout_cells() : 0) << ",\n"
        << "  \"remapped_rows\": " << pim.memory().remapped_rows() << ",\n"
        << "  \"time_ns\": " << pim.cost().time_ns << ",\n"
        << "  \"fallback_time_ns\": " << st.fallback_time_ns << ",\n"
        << "  \"energy_pj\": " << pim.cost().energy.total_pj() << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (trace.enabled()) {
    trace.write_chrome_json(trace_path);
    std::printf("wrote schedule trace to %s (%zu spans)\n",
                trace_path.c_str(), trace.spans().size());
  }

  if (corrupt) {
    if (wrong == 0) {
      std::fprintf(stderr,
                   "FAIL: corruption mode produced no wrong results — the "
                   "fault injection is not biting\n");
      return 1;
    }
    std::printf("OK: corruption observable without detection (%llu wrong)\n",
                static_cast<unsigned long long>(wrong));
    return 0;
  }
  if (wrong != 0) {
    std::fprintf(stderr, "FAIL: %llu results escaped recovery\n",
                 static_cast<unsigned long long>(wrong));
    return 1;
  }
  if (st.detected_faults == 0) {
    std::fprintf(stderr,
                 "FAIL: recovery campaign detected no faults — nothing was "
                 "actually tested\n");
    return 1;
  }
  std::printf("OK: zero wrong results with %llu faults detected\n",
              static_cast<unsigned long long>(st.detected_faults));
  return 0;
}
