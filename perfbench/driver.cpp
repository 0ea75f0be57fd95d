// The two driver workloads: one closed-loop client on the PimRuntime API at
// SenseFidelity::kAnalog (driver_analog), and the same loop on a faulty
// array with detection and recovery on (driver_faults).
//
// Every vector has a host golden copy; every pim_read is compared with it.
// Operands come from three pools so that all three step classes occur:
//   A — co-located rows of one subarray        (intra-subarray steps),
//   B — another subarray of the same rank       (A+B: inter-subarray),
//   C — the other rank                          (A+C: inter-bank).
// AND only ever runs on the buffer paths: analog AND-2 has ~5 sigma of
// sense margin, so a few lane flips per million are expected by design
// (see tests/integration/test_fuzz_runtime.cpp); OR-n, XOR and INV have
// >= 19 sigma and must always be exact.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "mem/mainmem.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"

namespace perfbench {
namespace {

using namespace pinatubo;
using Handle = core::PimRuntime::Handle;

/// One op shape of the deck: step class (by pool), op and fan-in.
enum class Pool : std::uint8_t { kIntra, kInterSub, kInterBank };
struct Shape {
  Pool pool;
  BitOp op;
  unsigned fan;
};

/// The op mix, 42 shapes, with the shares of the suite's application
/// traces (Graph + Fastbit at seed 17, 8969 ops; README.md has the table):
///   ops:   OR 52 % (fan-in 2..7: 12/8/9/8/8/7 %), AND 38 %, INV 10 %;
///   steps: 66 % intra-subarray, 34 % inter-subarray, 0 inter-bank.
/// ANDs take the inter-subarray share (no intra AND: see the file comment),
/// which puts 14 of 42 ops there, as in the applications.  One OR-8, one
/// XOR and one inter-bank AND are the least that covers fan-in 8, XOR and
/// the inter-bank path, which the applications do not use.
/// Every round issues whole copies of the mix in a seeded order, so each
/// round has the same mix and the seed picks only order, operands and data.
constexpr Shape kShapes[] = {
    {Pool::kIntra, BitOp::kOr, 2},      {Pool::kIntra, BitOp::kOr, 2},
    {Pool::kIntra, BitOp::kOr, 2},      {Pool::kIntra, BitOp::kOr, 2},
    {Pool::kIntra, BitOp::kOr, 2},      {Pool::kIntra, BitOp::kOr, 3},
    {Pool::kIntra, BitOp::kOr, 3},      {Pool::kIntra, BitOp::kOr, 3},
    {Pool::kIntra, BitOp::kOr, 4},      {Pool::kIntra, BitOp::kOr, 4},
    {Pool::kIntra, BitOp::kOr, 4},      {Pool::kIntra, BitOp::kOr, 4},
    {Pool::kIntra, BitOp::kOr, 5},      {Pool::kIntra, BitOp::kOr, 5},
    {Pool::kIntra, BitOp::kOr, 5},      {Pool::kIntra, BitOp::kOr, 6},
    {Pool::kIntra, BitOp::kOr, 6},      {Pool::kIntra, BitOp::kOr, 6},
    {Pool::kIntra, BitOp::kOr, 7},      {Pool::kIntra, BitOp::kOr, 7},
    {Pool::kIntra, BitOp::kOr, 7},      {Pool::kIntra, BitOp::kOr, 8},
    {Pool::kIntra, BitOp::kInv, 1},     {Pool::kIntra, BitOp::kInv, 1},
    {Pool::kIntra, BitOp::kInv, 1},     {Pool::kIntra, BitOp::kInv, 1},
    {Pool::kIntra, BitOp::kXor, 2},     {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterSub, BitOp::kAnd, 2},
    {Pool::kInterSub, BitOp::kAnd, 2},  {Pool::kInterBank, BitOp::kAnd, 2},
};
constexpr unsigned kShapeCount = sizeof kShapes / sizeof kShapes[0];

/// Calls per copy of the op mix: 36 single pim_ops plus 2 pim_begin /
/// pim_barrier windows of 3 ops use up the 42 shapes; 4 pim_writes and
/// 2 pim_copys ride along.  Every op and copy reads its destination back.
/// These call counts are set, not measured: the repo's clients issue no
/// windows or copies, and their write shares differ widely (bitmap_query
/// writes only at load, graph_bfs rewrites its partials every level).
enum class Action : std::uint8_t { kOp, kWindow, kWrite, kCopy, kBurst };
constexpr unsigned kWindowOps = 3;
constexpr std::pair<Action, unsigned> kActions[] = {
    {Action::kOp, 36}, {Action::kWindow, 2}, {Action::kWrite, 4},
    {Action::kCopy, 2}};
static_assert(36 + 2 * kWindowOps == kShapeCount);

struct LoopParams {
  std::uint64_t bits;  ///< vector length
  unsigned pool_a, pool_b, pool_c;
  unsigned rounds;           ///< distinct rounds a run cycles over
  unsigned mixes_per_round;  ///< copies of the op mix per round
  unsigned hot_vectors;      ///< pool-A vectors that get write bursts
  unsigned bursts;           ///< bursts per hot vector per round
  unsigned burst_len;        ///< pim_writes per burst
};

LoopParams loop_params(Size s, bool faults) {
  // driver_analog: 2^16-bit vectors (4 column stripes).  driver_faults:
  // 2^15-bit vectors, which at the stressed sense BER of configs/faulty.cfg
  // leave about half the intra-subarray ops clean at the first sense, so
  // p50 lands among clean ops and p90 among recovered ones; bursts of
  // writes on two rows pass its 200-write endurance knee inside every
  // round and wear out (the remap rung).
  if (faults)
    return s == Size::kTiny ? LoopParams{1u << 15, 8, 3, 3, 2, 1, 2, 2, 16}
                            : LoopParams{1u << 15, 16, 4, 4, 6, 2, 2, 2, 160};
  return s == Size::kTiny ? LoopParams{1u << 16, 8, 3, 3, 2, 1, 0, 0, 0}
                          : LoopParams{1u << 16, 16, 4, 4, 8, 2, 0, 0, 0};
}

struct Client {
  std::unique_ptr<core::PimRuntime> pim;
  std::vector<Handle> vecs;
  std::vector<BitVector> golden;  // vecs = pool A ++ pool B ++ pool C
};

/// Runtime construction plus the initial pim_writes.
Client make_client(const core::PimRuntime::Options& opts, const LoopParams& lp,
                   Rng& rng) {
  Client c;
  c.pim = std::make_unique<core::PimRuntime>(mem::Geometry{}, opts);
  auto& pim = *c.pim;
  for (unsigned i = 0; i < lp.pool_a; ++i) c.vecs.push_back(pim.pim_malloc(lp.bits));
  const core::Placement a0 = pim.placement(c.vecs.front());
  // The PIM-aware allocator fills a subarray's column windows in order;
  // unwritten fillers walk its cursor to the next subarray, then (with
  // full-width fillers) to the next rank.  They are never written.
  Handle h = pim.pim_malloc(lp.bits);
  while (pim.placement(h).same_subarray(a0)) h = pim.pim_malloc(lp.bits);
  c.vecs.push_back(h);
  for (unsigned i = 1; i < lp.pool_b; ++i) c.vecs.push_back(pim.pim_malloc(lp.bits));
  const std::uint64_t row_bits = pim.geometry().row_group_bits();
  while (pim.placement(pim.pim_malloc(row_bits)).same_rank(a0)) {
  }
  for (unsigned i = 0; i < lp.pool_c; ++i) c.vecs.push_back(pim.pim_malloc(lp.bits));
  PIN_CHECK_MSG(!pim.placement(c.vecs.back()).same_rank(a0) &&
                    pim.placement(c.vecs[lp.pool_a]).same_rank(a0) &&
                    !pim.placement(c.vecs[lp.pool_a]).same_subarray(a0),
                "pool placement did not produce the three step classes");
  for (const Handle v : c.vecs) {
    c.golden.push_back(BitVector::random(lp.bits, 0.5, rng));
    pim.pim_write(v, c.golden.back());
  }
  return c;
}

/// Host-clock accounting of one replay (or, summed, of a run).
struct Tally {
  std::vector<double> op_ms;  ///< per pim_op call, in issue order
  std::uint64_t ops = 0;      ///< pim_op + pim_copy completed
  std::uint64_t first_try = 0, sensed_ops = 0;
  reliability::Counters rel;
};

class Loop {
 public:
  Loop(Client& c, const LoopParams& lp, Rng& rng, SpanRecorder& rec,
       Outcome& out, Tally& tally, bool corrupt_golden)
      : c_(c), lp_(lp), rng_(rng), rec_(rec), out_(out), t_(tally),
        corrupt_(corrupt_golden) {}

  void run() {
    std::vector<Action> actions;
    for (unsigned m = 0; m < lp_.mixes_per_round; ++m) {
      for (const auto& [a, n] : kActions) actions.insert(actions.end(), n, a);
      for (unsigned k = 0; k < kShapeCount; ++k) shapes_.push_back(kShapes[k]);
    }
    actions.insert(actions.end(), lp_.hot_vectors * lp_.bursts, Action::kBurst);
    std::shuffle(actions.begin(), actions.end(), rng_);
    std::shuffle(shapes_.begin(), shapes_.end(), rng_);
    unsigned next_hot = 0;
    for (const Action a : actions) {
      switch (a) {
        case Action::kOp: op(); break;
        case Action::kWindow: window(); break;
        case Action::kWrite: write(pick_any(), 1); break;
        case Action::kCopy: copy(); break;
        case Action::kBurst:
          write(next_hot++ % lp_.hot_vectors, lp_.burst_len);
          break;
      }
    }
  }

 private:
  std::size_t pick_any() { return rng_.uniform_u64(c_.vecs.size()); }

  /// Reads vector i back and compares it with the golden copy; `after` and
  /// `srcs` name the call that last wrote it, for the failure log.
  void read_check(std::size_t i, const char* after,
                  const std::vector<std::size_t>& srcs) {
    BitVector got;
    timed(rec_, "driver.pim_read", [&] { got = c_.pim->pim_read(c_.vecs[i]); });
    ++out_.attempted;
    if (got == c_.golden[i]) return;
    std::string why = "pim_read of vector ";
    why += std::to_string(i);
    why += " after ";
    why += after;
    for (const auto s : srcs) why += ' ' + std::to_string(s);
    out_.fail(1, why + " differs from the golden model");
    c_.golden[i] = std::move(got);  // resync: count each error once
  }

  std::uint64_t rel_events() const {
    const auto* rm = c_.pim->recovery();
    if (!rm) return 0;
    const auto& k = rm->counters();
    return k.detected_faults + k.retries + k.deescalations + k.remaps +
           k.fallbacks;
  }

  void op() {
    const Shape sh = shapes_.back();
    shapes_.pop_back();
    const BitOp op = sh.op;
    const bool intra = sh.pool == Pool::kIntra;
    const std::size_t n_a = lp_.pool_a;
    const std::size_t other_lo =
        sh.pool == Pool::kInterSub ? n_a : n_a + lp_.pool_b;
    const std::size_t other_n = intra ? 0
                                : sh.pool == Pool::kInterSub ? lp_.pool_b
                                                             : lp_.pool_c;
    // Distinct sources; a cross-pool op takes its first source from the
    // other pool and (fan-in allowing) its second from A, so the operands
    // really straddle subarrays / ranks and never form an analog AND.
    std::vector<std::size_t> src, pool;
    for (std::size_t i = 0; i < n_a; ++i) pool.push_back(i);
    if (!intra) {
      src.push_back(other_lo + rng_.uniform_u64(other_n));
      if (sh.fan > 1) src.push_back(rng_.uniform_u64(n_a));
    }
    for (std::size_t i = other_lo; i < other_lo + other_n; ++i) pool.push_back(i);
    while (src.size() < sh.fan) {
      const std::size_t s = pool[rng_.uniform_u64(pool.size())];
      if (std::find(src.begin(), src.end(), s) == src.end()) src.push_back(s);
    }
    std::size_t dst;
    if (op == BitOp::kInv) {
      do dst = rng_.uniform_u64(n_a); while (dst == src[0]);
    } else {
      dst = rng_.uniform_u64(3) == 0 ? src[rng_.uniform_u64(src.size())]
                                     : rng_.uniform_u64(n_a);
    }
    std::vector<Handle> hs;
    std::vector<const BitVector*> gs;
    for (const auto s : src) {
      hs.push_back(c_.vecs[s]);
      gs.push_back(&c_.golden[s]);
    }
    BitVector expect = BitVector::reduce(op, gs);
    const std::uint64_t rel0 = rel_events();
    const double dt = timed(rec_, "driver.pim_op", [&] {
      c_.pim->pim_op(op, hs, c_.vecs[dst]);
    });
    t_.op_ms.push_back(dt * 1e3);
    ++t_.ops;
    ++out_.attempted;
    if (intra) {
      ++t_.sensed_ops;
      t_.first_try += rel_events() == rel0;
    }
    c_.golden[dst] = std::move(expect);
    if (corrupt_) {
      corrupt_ = false;
      c_.golden[dst].flip(0);
    }
    read_check(dst, to_string(op), src);
  }

  /// `n` pim_writes of fresh random data to vector i.
  void write(std::size_t i, unsigned n) {
    for (unsigned k = 0; k < n; ++k) {
      BitVector data = BitVector::random(lp_.bits, 0.5, rng_);
      timed(rec_, "driver.pim_write",
            [&] { c_.pim->pim_write(c_.vecs[i], data); });
      ++out_.attempted;
      c_.golden[i] = std::move(data);
    }
  }

  void copy() {
    const std::size_t s = pick_any();
    std::size_t d;
    do d = pick_any(); while (d == s);
    timed(rec_, "driver.pim_copy", [&] {
      c_.pim->pim_copy(c_.vecs[s], c_.vecs[d]);
    });
    ++t_.ops;
    ++out_.attempted;
    c_.golden[d] = c_.golden[s];
    read_check(d, "pim_copy", {s});
  }

  void window() {
    timed(rec_, "driver.pim_begin", [&] { c_.pim->pim_begin(); });
    for (unsigned i = 0; i < kWindowOps; ++i) op();
    timed(rec_, "driver.pim_barrier", [&] { c_.pim->pim_barrier(); });
  }

  Client& c_;
  const LoopParams& lp_;
  Rng& rng_;
  SpanRecorder& rec_;
  Outcome& out_;
  Tally& t_;
  bool corrupt_;
  std::vector<Shape> shapes_;  ///< this round's op mix, consumed from the back
};

/// MainMemory::sense_rows in isolation: ns per sensed bit at `rows` rows.
double sense_probe(unsigned rows, std::uint64_t seed) {
  const mem::Geometry geo{};
  mem::MainMemory mm(geo, nvm::Tech::kPcm, mem::SenseFidelity::kAnalog, seed);
  Rng rng(seed);
  std::vector<mem::RowAddr> addrs;
  for (unsigned r = 0; r < rows; ++r) {
    mem::RowAddr a;
    a.row = r;
    mm.write_row(a, BitVector::random(geo.rank_row_bits(), 0.5, rng));
    addrs.push_back(a);
  }
  constexpr int kReps = 64;
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const BitVector out = mm.sense_rows(addrs, BitOp::kOr);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(out.size()));
  }
  return median(ns);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  PIN_CHECK_MSG(f.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

core::PimRuntime::Options driver_options(bool faults,
                                         const std::string& faulty_cfg) {
  core::PimRuntime::Options opts;
  opts.tech = nvm::Tech::kPcm;
  opts.fidelity = mem::SenseFidelity::kAnalog;
  opts.policy = core::AllocPolicy::kPimAware;
  opts.max_rows = 128;
  if (faults) {
    opts.reliability = reliability::policy_from_config(
        Config::from_string(read_file(faulty_cfg)));
  }
  // Set explicitly: the build-type default would be kAlways in Debug.
  opts.reliability.verify.level = reliability::VerifyLevel::kOff;
  return opts;
}

const char* workload_name(bool faults) {
  return faults ? "driver_faults" : "driver_analog";
}

/// One replay of a round: a fresh client built from the round's seeds,
/// then the round's calls.  Every replay of a round issues the same calls
/// with the same results and the same machine clock.
struct Replay {
  Tally t;
  double setup_s = 0, w0 = 0, w1 = 0;  ///< w0..w1: the calls, on `rec`'s clock
  core::PimRuntime::Stats stats;
  mem::Cost cost;
};

Replay replay_round(core::PimRuntime::Options opts, const LoopParams& lp,
                    std::uint64_t seed, unsigned round, bool traced,
                    bool corrupt_golden, SpanRecorder& rec, Outcome& out) {
  Replay r;
  Rng rng(mix_seed(seed, round));
  opts.seed = mix_seed(seed, 1000 + round);
  const auto t0 = Clock::now();
  Client c = make_client(opts, lp, rng);
  r.setup_s = seconds_since(t0);
  obs::TraceSession session(traced);
  c.pim->set_trace(&session);
  rec.enabled = traced;
  r.w0 = rec.now();
  try {
    Loop(c, lp, rng, rec, out, r.t, corrupt_golden).run();
    if (c.pim->in_batch()) c.pim->pim_barrier();
  } catch (const std::exception& e) {
    out.fail(1, "round " + std::to_string(round) + ": " + e.what());
  }
  r.w1 = rec.now();
  rec.enabled = false;
  r.stats = c.pim->stats();
  r.cost = c.pim->cost();
  return r;
}

/// A replay's machine clock as record text: cost, per-class time, bus
/// bytes, step and batch counts, and the recovery counters.
std::string describe(const Replay& r) {
  const auto& st = r.stats;
  std::ostringstream s;
  s << std::hexfloat << r.cost.time_ns << ' ' << r.cost.energy.total_pj()
    << ' ' << st.serial_time_ns;
  for (const auto& c : st.by_class) s << ' ' << c.time_ns;
  for (const std::uint64_t v :
       {st.bus_bytes, st.batches, st.intra_steps, st.inter_sub_steps,
        st.inter_bank_steps, st.host_reads, st.detected_faults, st.retries,
        st.deescalations, st.remaps, st.fallbacks})
    s << ' ' << v;
  return s.str();
}

}  // namespace

Outcome run_driver(const RunOptions& opt, bool faults) {
  Outcome out;
  const Record record = load_record(opt.record_path);
  const LoopParams lp = loop_params(opt.size, faults);
  core::PimRuntime::Options opts = driver_options(faults, opt.faulty_cfg);

  SpanRecorder rec;
  std::vector<double> setup;
  // Set-up is timed on kSetupReps clients built only for that, plus the
  // client of every measured replay.
  for (unsigned r = 0; r < kSetupReps; ++r) {
    Rng rng(mix_seed(opt.seed, 5000 + r));
    opts.seed = mix_seed(opt.seed, 6000 + r);
    const auto t0 = Clock::now();
    const Client c = make_client(opts, lp, rng);
    setup.push_back(seconds_since(t0));
  }

  // A run cycles over a fixed set of `lp.rounds` distinct rounds until
  // `seconds` have elapsed (at least one pass; two in a traced run, whose
  // odd passes are traced).  Since replays of a round repeat it exactly,
  // the work measured does not depend on how many replays fit: the host
  // clock keeps each round's fastest untraced replay and, per call, its
  // fastest latency.  On a shared machine that filters out time stolen by
  // other processes.
  struct RoundBest {
    std::vector<double> op_ms;  ///< per pim_op, min over replays
    double loop_s = 1e300;
    double traced_s = 1e300;
    std::string machine;  ///< machine clock of the first replay
    bool seen = false;
  };
  std::vector<RoundBest> best(lp.rounds);
  Tally tally;  // first replay of every round: counts, reliability
  std::vector<std::pair<double, double>> traced_windows;
  double measured_s = 0;
  core::PimRuntime::Stats round0{};
  mem::Cost round0_cost;
  std::uint64_t batches = 0, bus_bytes = 0;
  std::uint64_t steps[4] = {};
  const unsigned min_replays = lp.rounds * (opt.trace ? 2u : 1u);
  unsigned replay = 0;
  for (; replay < min_replays || measured_s < opt.seconds; ++replay) {
    const unsigned round = replay % lp.rounds;
    const bool traced = opt.trace && (replay / lp.rounds) % 2 == 1;
    RoundBest& rb = best[round];
    const Replay r = replay_round(opts, lp, opt.seed, round, traced,
                                  opt.corrupt_golden && replay == 0, rec, out);
    setup.push_back(r.setup_s);
    measured_s += r.w1 - r.w0;
    const std::string machine = describe(r);
    if (rb.seen && machine != rb.machine)
      out.fail(r.t.ops, "round " + std::to_string(round) + " replay " +
                            std::to_string(replay) +
                            ": machine clock differs from the first replay");
    if (traced) {
      traced_windows.emplace_back(r.w0, r.w1);
      rb.traced_s = std::min(rb.traced_s, r.w1 - r.w0);
      continue;
    }
    rb.loop_s = std::min(rb.loop_s, r.w1 - r.w0);
    if (rb.seen) {
      for (std::size_t i = 0; i < rb.op_ms.size() && i < r.t.op_ms.size(); ++i)
        rb.op_ms[i] = std::min(rb.op_ms[i], r.t.op_ms[i]);
      continue;
    }
    // Counts come from a round's first replay; later ones repeat them.
    rb.seen = true;
    rb.machine = machine;
    rb.op_ms = r.t.op_ms;
    const auto& st = r.stats;
    if (round == 0) {
      round0 = st;
      round0_cost = r.cost;
    }
    tally.ops += r.t.ops;
    tally.first_try += r.t.first_try;
    tally.sensed_ops += r.t.sensed_ops;
    batches += st.batches;
    bus_bytes += st.bus_bytes;
    steps[0] += st.intra_steps;
    steps[1] += st.inter_sub_steps;
    steps[2] += st.inter_bank_steps;
    steps[3] += st.host_reads;
    tally.rel.detected_faults += st.detected_faults;
    tally.rel.retries += st.retries;
    tally.rel.deescalations += st.deescalations;
    tally.rel.remaps += st.remaps;
    tally.rel.fallbacks += st.fallbacks;
  }
  std::vector<RecordEntry> got;
  std::vector<double> op_ms;
  double best_s = 0, traced_s = 0;
  for (unsigned round = 0; round < lp.rounds; ++round) {
    const RoundBest& rb = best[round];
    got.push_back({record_key(opt.size, opt.seed, "round" + std::to_string(round),
                              workload_name(faults)),
                   rb.machine, rb.op_ms.size()});
    op_ms.insert(op_ms.end(), rb.op_ms.begin(), rb.op_ms.end());
    best_s += rb.loop_s;
    traced_s += rb.traced_s;
  }
  check_record(record, opt, got, out);
  out.end_to_end.set("setup_s", median(setup), "s");
  out.end_to_end.set("ops_per_s", static_cast<double>(tally.ops) / best_s, "1/s");
  out.end_to_end.set("op_p50_ms", percentile(op_ms, 50), "ms");
  out.end_to_end.set("op_p90_ms", percentile(op_ms, 90), "ms");
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "# measured rounds=%u replays=%u seconds=%.3f ops=%" PRIu64
                " op_latency_samples=%zu",
                lp.rounds, replay, measured_s, tally.ops, op_ms.size());
  out.info.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "# reliability detected=%" PRIu64 " retries=%" PRIu64
                " deescalations=%" PRIu64 " remaps=%" PRIu64
                " fallbacks=%" PRIu64,
                tally.rel.detected_faults, tally.rel.retries,
                tally.rel.deescalations, tally.rel.remaps, tally.rel.fallbacks);
  out.info.push_back(buf);

  Metrics& m = out.per_layer;
  set_zero_layers(m);
  const auto busy = rec.busy();
  for (const char* call :
       {"pim_op", "pim_write", "pim_read", "pim_copy", "pim_barrier"}) {
    const auto it = busy.find(std::string("driver.") + call);
    m.set(std::string("driver.") + call + ".busy_s",
          it == busy.end() ? 0.0 : it->second, "s");
  }
  m.set("driver.pim_op.p99_ms", percentile(op_ms, 99), "ms");
  m.set("driver.pim_op.samples", static_cast<double>(op_ms.size()), "count");
  m.set("driver.batches", static_cast<double>(batches), "count");
  m.set("driver.bus_bytes", static_cast<double>(bus_bytes), "B");
  const char* cls[] = {"intra", "inter_sub", "inter_bank", "host_read"};
  for (int k = 0; k < 4; ++k)
    m.set(std::string("driver.steps.") + cls[k], static_cast<double>(steps[k]),
          "count");
  if (opts.reliability.detection_enabled()) {
    m.set("reliability.detected", static_cast<double>(tally.rel.detected_faults), "count");
    m.set("reliability.retries", static_cast<double>(tally.rel.retries), "count");
    m.set("reliability.deescalations", static_cast<double>(tally.rel.deescalations), "count");
    m.set("reliability.remaps", static_cast<double>(tally.rel.remaps), "count");
    m.set("reliability.fallbacks", static_cast<double>(tally.rel.fallbacks), "count");
    m.set("reliability.first_try_frac",
          tally.sensed_ops ? static_cast<double>(tally.first_try) /
                                 static_cast<double>(tally.sensed_ops)
                           : 0.0,
          "ratio");
  }
  if (opt.trace) {
    m.set("mem.sense_rows.r2_ns_per_bit", sense_probe(2, opt.seed), "ns");
    m.set("mem.sense_rows.r8_ns_per_bit", sense_probe(8, opt.seed), "ns");
    m.set("obs.trace_overhead", traced_s / best_s - 1.0, "ratio");
  }
  m.set("coverage.uncovered", rec.uncovered_share(traced_windows), "ratio");
  m.set("machine.driver.time_ns", round0_cost.time_ns, "ns");
  m.set("machine.driver.energy_pj", round0_cost.energy.total_pj(), "pJ");
  for (std::size_t k = 0; k < core::kStepKindCount; ++k)
    m.set(std::string("machine.driver.class_ns.") + cls[k],
          round0.by_class[k].time_ns, "ns");
  m.set("machine.driver.bus_bytes", static_cast<double>(round0.bus_bytes), "B");
  m.set("machine.driver.overlap",
        round0_cost.time_ns > 0 ? round0.serial_time_ns / round0_cost.time_ns : 0.0,
        "ratio");
  if (opt.trace && !opt.out_dir.empty())
    rec.write_chrome_json(opt.out_dir + "/" + opt.workload + "-" +
                          std::to_string(opt.seed) + ".host.json");
  return out;
}

std::vector<RecordEntry> driver_record(Size size, std::uint64_t seed,
                                       bool faults,
                                       const std::string& faulty_cfg) {
  const LoopParams lp = loop_params(size, faults);
  const auto opts = driver_options(faults, faulty_cfg);
  std::vector<RecordEntry> entries;
  for (unsigned round = 0; round < lp.rounds; ++round) {
    SpanRecorder rec;
    Outcome out;
    const Replay r = replay_round(opts, lp, seed, round, false, false, rec, out);
    if (out.failed)
      throw std::runtime_error("cannot record a failing round: " +
                               out.failures.front());
    entries.push_back({record_key(size, seed, "round" + std::to_string(round),
                                  workload_name(faults)),
                       describe(r), r.t.ops});
  }
  return entries;
}

}  // namespace perfbench
