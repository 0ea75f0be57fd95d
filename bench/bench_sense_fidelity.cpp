// Analog sensing throughput: legacy per-bit CSA loop vs the batched
// word-parallel SenseBatch path that MainMemory now uses.  Not a paper
// figure — a regression guard for the functional layer's own performance
// plus a cross-thread determinism check of the counter-based RNG keying.
//
//   bench_sense_fidelity [--threads N] [--json <path>]
//
// Exits non-zero if the multi-threaded analog results are not bit-identical
// to the single-threaded run (the contract CI enforces).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/csa.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "mem/mainmem.hpp"

using namespace pinatubo;
using Clock = std::chrono::steady_clock;

namespace {

struct OpCase {
  const char* name;
  BitOp op;
  unsigned rows;
};

constexpr OpCase kCases[] = {
    {"or2", BitOp::kOr, 2},
    {"and2", BitOp::kAnd, 2},
    {"xor2", BitOp::kXor, 2},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The pre-batching analog path, verbatim: one CsaModel::sense_op call per
/// bitline with a column gathered through BitVector::get and a sequential
/// xoshiro stream.  Best-of-reps timing: the minimum is robust against the
/// scheduler noise of shared CI machines.
double legacy_ns_per_bit(const circuit::CsaModel& csa,
                         const nvm::CellParams& cell, BitOp op,
                         const std::vector<BitVector>& operands, int reps) {
  const std::size_t width = operands.front().size();
  Rng rng(123);
  std::vector<bool> column(operands.size());
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    BitVector out(width);
    for (std::size_t bit = 0; bit < width; ++bit) {
      for (std::size_t r = 0; r < operands.size(); ++r)
        column[r] = operands[r].get(bit);
      if (csa.sense_op(op, column, cell, &rng)) out.set(bit);
    }
    if (out.popcount() == width + 1) std::abort();  // keep `out` live
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / static_cast<double>(width);
}

double batched_ns_per_bit(mem::MainMemory& mem,
                          const std::vector<mem::RowAddr>& rows, BitOp op,
                          int reps) {
  const auto width = static_cast<double>(mem.geometry().rank_row_bits());
  mem.sense_rows(rows, op);  // warm-up (pool spin-up, arena touch)
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const auto out = mem.sense_rows(rows, op);
    if (out.size() == 0) std::abort();
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / width;
}

/// Runs the full analog op sequence on a fresh memory with `threads`
/// pool threads; used for the 1-vs-N bit-identity check.
std::vector<BitVector> sense_sequence(const mem::Geometry& g,
                                      unsigned threads) {
  ThreadPool::set_global_threads(threads);
  mem::MainMemory mem(g, nvm::Tech::kPcm, mem::SenseFidelity::kAnalog, 99);
  const mem::RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
  Rng rng(5);
  mem.write_row(r0, BitVector::random(g.rank_row_bits(), 0.5, rng));
  mem.write_row(r1, BitVector::random(g.rank_row_bits(), 0.5, rng));
  std::vector<BitVector> out;
  for (const auto& c : kCases)
    out.push_back(mem.sense_rows({r0, r1}, c.op));
  out.push_back(mem.sense_rows({r0}, BitOp::kInv));
  return out;
}

}  // namespace

int run(const Args& args) {
  // Absent: 0, the pool default (PINATUBO_THREADS or hardware concurrency).
  const unsigned threads =
      parse_thread_count(args.values.get_or("--threads", "0"), "--threads");
  const std::string json_path = args.values.get_or("--json", "");
  ThreadPool::set_global_threads(threads);

  mem::Geometry g;  // evaluated machine: 64 Kb functional rows
  const auto& cell = nvm::cell_params(nvm::Tech::kPcm);

  mem::MainMemory mem(g, nvm::Tech::kPcm, mem::SenseFidelity::kAnalog, 7);
  const mem::RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
  Rng rng(5);
  mem.write_row(r0, BitVector::random(g.rank_row_bits(), 0.5, rng));
  mem.write_row(r1, BitVector::random(g.rank_row_bits(), 0.5, rng));
  const std::vector<BitVector> operands = {mem.read_row(r0), mem.read_row(r1)};
  const std::vector<mem::RowAddr> rows = {r0, r1};

  bench::JsonReport report;
  report.add("threads", static_cast<double>(ThreadPool::global_threads()));
  std::printf("analog sensing, %llu bits/row, %u pool thread(s)\n",
              static_cast<unsigned long long>(g.rank_row_bits()),
              ThreadPool::global_threads());
  std::printf("%-6s %14s %14s %9s\n", "op", "per-bit ns/b", "batched ns/b",
              "speedup");
  double log_sum = 0.0;
  for (const auto& c : kCases) {
    const double base =
        legacy_ns_per_bit(mem.csa(), cell, c.op, operands, 3);
    const double batched = batched_ns_per_bit(mem, rows, c.op, 30);
    const double speedup = base / batched;
    log_sum += std::log(speedup);
    std::printf("%-6s %14.2f %14.3f %8.1fx\n", c.name, base, batched, speedup);
    report.add(std::string(c.name) + "_baseline_ns_per_bit", base);
    report.add(std::string(c.name) + "_batched_ns_per_bit", batched);
    report.add(std::string(c.name) + "_speedup", speedup);
  }
  const double gmean = std::exp(log_sum / std::size(kCases));
  std::printf("gmean speedup: %.1fx\n", gmean);
  report.add("gmean_speedup", gmean);

  // Cross-thread determinism: N-thread analog results must be bit-identical
  // to the single-threaded reference.
  const unsigned check_threads =
      ThreadPool::global_threads() > 1 ? ThreadPool::global_threads() : 4u;
  const bool identical = sense_sequence(g, 1) == sense_sequence(g, check_threads);
  ThreadPool::set_global_threads(threads);
  std::printf("determinism (1 vs %u threads): %s\n", check_threads,
              identical ? "bit-identical" : "MISMATCH");
  report.add("determinism", identical ? "pass" : "fail");
  report.write(json_path);
  return identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, {.options = {"--threads", "--json"}}, run);
}
