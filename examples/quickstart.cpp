// Quickstart: the Pinatubo driver API end to end.
//
//   1. create a runtime (simulated PCM DIMM + driver library),
//   2. pim_malloc bit-vectors,
//   3. load data, run OR/AND/XOR/INV *inside the memory*,
//   4. read results back, inspect cost and the DDR command stream.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "common/config.hpp"
#include "common/units.hpp"
#include "pinatubo/driver.hpp"

using namespace pinatubo;

int run(const Args&) {
  // A Pinatubo-enabled PCM main memory with command recording on.
  core::PimRuntime::Options opts;
  opts.tech = nvm::Tech::kPcm;
  opts.max_rows = 128;
  opts.record_commands = true;
  core::PimRuntime pim(mem::Geometry{}, opts);

  // Three 16 Ki-bit vectors: the allocator co-locates them on adjacent
  // rows of one subarray so ops can use multi-row activation.
  const std::uint64_t kBits = 1ull << 14;
  const auto a = pim.pim_malloc(kBits);
  const auto b = pim.pim_malloc(kBits);
  const auto dst = pim.pim_malloc(kBits);

  Rng rng(42);
  const auto va = BitVector::random(kBits, 0.3, rng);
  const auto vb = BitVector::random(kBits, 0.3, rng);
  pim.pim_write(a, va);
  pim.pim_write(b, vb);

  // dst = a OR b — computed by the sense amplifiers, not the CPU.
  pim.pim_op(BitOp::kOr, {a, b}, dst);
  std::printf("OR  correct: %s\n",
              pim.pim_read(dst) == (va | vb) ? "yes" : "NO");

  pim.pim_op(BitOp::kAnd, {a, b}, dst);
  std::printf("AND correct: %s\n",
              pim.pim_read(dst) == (va & vb) ? "yes" : "NO");

  pim.pim_op(BitOp::kXor, {a, b}, dst);
  std::printf("XOR correct: %s\n",
              pim.pim_read(dst) == (va ^ vb) ? "yes" : "NO");

  pim.pim_op(BitOp::kInv, {a}, dst);
  std::printf("INV correct: %s\n", pim.pim_read(dst) == ~va ? "yes" : "NO");

  // A 64-operand OR in ONE multi-row activation.
  std::vector<core::PimRuntime::Handle> many;
  BitVector expect(kBits);
  for (int i = 0; i < 64; ++i) {
    const auto h = pim.pim_malloc(kBits);
    const auto v = BitVector::random(kBits, 0.02, rng);
    pim.pim_write(h, v);
    expect |= v;
    many.push_back(h);
  }
  pim.pim_op(BitOp::kOr, many, many.back());
  std::printf("64-row OR correct: %s\n",
              pim.pim_read(many.back()) == expect ? "yes" : "NO");

  const auto& st = pim.stats();
  std::printf(
      "\n%llu ops -> %llu intra-subarray steps, %llu inter-subarray, "
      "%llu inter-bank\n",
      static_cast<unsigned long long>(st.ops),
      static_cast<unsigned long long>(st.intra_steps),
      static_cast<unsigned long long>(st.inter_sub_steps),
      static_cast<unsigned long long>(st.inter_bank_steps));
  std::printf("total PIM time %s, energy %s\n",
              units::format_time(pim.cost().time_ns).c_str(),
              units::format_energy(pim.cost().energy.total_pj()).c_str());

  std::printf("\nfirst DDR commands of the last op:\n");
  const auto& cmds = pim.commands();
  const std::size_t start = cmds.size() >= 70 ? cmds.size() - 70 : 0;
  for (std::size_t i = start; i < cmds.size() && i < start + 8; ++i)
    std::printf("  %s\n", cmds[i].to_string().c_str());
  std::printf("  ... (%zu commands total)\n", cmds.size());
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
