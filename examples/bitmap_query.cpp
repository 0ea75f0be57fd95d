// Bitmap-index queries executed through the Pinatubo memory: the FastBit
// example from the paper's Database workload, with the bin bitmaps living
// in NVM rows, bin-range ORs as multi-row activations, and every COUNT
// cross-checked against a row-by-row scan of the raw table.
//
// Build & run:  ./examples/bitmap_query [queries=20]
#include <cstdio>

#include "apps/bitmap_index.hpp"
#include "common/config.hpp"
#include "common/units.hpp"
#include "pinatubo/driver.hpp"

using namespace pinatubo;

namespace {

int run(const Args& args) {
  const auto n_queries =
      static_cast<std::size_t>(args.values.get_u64("queries", 20));

  // A small event table so the example runs instantly; the bench suite
  // uses the full STAR-scale configuration.
  apps::IndexConfig cfg;
  cfg.rows = 1ull << 16;
  const apps::BitmapIndex index(cfg, 99);

  core::PimRuntime pim;
  // Load the index into PIM rows in id order: the id layout interleaves
  // two attributes' bins with scratch rows so predicate evaluation stays
  // intra-subarray (see apps/bitmap_index.hpp).
  const std::uint64_t block = 2ull * cfg.bins + cfg.scratch_per_pair;
  const std::uint64_t total_ids = (cfg.attributes / 2) * block;
  std::vector<core::PimRuntime::Handle> by_id(total_ids);
  for (std::uint64_t id = 0; id < total_ids; ++id)
    by_id[id] = pim.pim_malloc(cfg.rows);
  for (unsigned a = 0; a < cfg.attributes; ++a)
    for (unsigned b = 0; b < cfg.bins; ++b)
      pim.pim_write(by_id[index.bitmap_id(a, b)], index.bin_bitmap(a, b));

  const auto queries = apps::generate_queries(cfg, n_queries, 7);
  std::size_t correct = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    // Evaluate each predicate into its pair's scratch row.
    std::vector<unsigned> pair_use(cfg.attributes / 2 + 1, 0);
    std::vector<core::PimRuntime::Handle> pred;
    for (const auto& p : q.preds) {
      const auto slot = by_id[index.scratch_id(p.attr, pair_use[p.attr / 2]++)];
      if (p.hi_bin > p.lo_bin) {
        std::vector<core::PimRuntime::Handle> bins;
        for (unsigned b = p.lo_bin; b <= p.hi_bin; ++b)
          bins.push_back(by_id[index.bitmap_id(p.attr, b)]);
        pim.pim_op(BitOp::kOr, bins, slot);
        if (p.negate) pim.pim_op(BitOp::kInv, {slot}, slot);
        pred.push_back(slot);
      } else if (p.negate) {
        pim.pim_op(BitOp::kInv, {by_id[index.bitmap_id(p.attr, p.lo_bin)]},
                   slot);
        pred.push_back(slot);
      } else {
        pred.push_back(by_id[index.bitmap_id(p.attr, p.lo_bin)]);
      }
    }
    // Conjunction, accumulated in the first pair's scratch.
    const auto out = by_id[index.scratch_id(q.preds[0].attr,
                                            pair_use[q.preds[0].attr / 2]++)];
    pim.pim_op(BitOp::kAnd, {pred[0], pred[1]}, out);
    for (std::size_t i = 2; i < pred.size(); ++i)
      pim.pim_op(BitOp::kAnd, {out, pred[i]}, out);

    const auto count = pim.pim_read(out).popcount();
    const auto expect = apps::count_matches_reference(index, q);
    correct += count == expect;
    if (qi < 8)
      std::printf("query %2zu: %zu preds -> COUNT=%llu (reference %llu) %s\n",
                  qi, q.preds.size(), static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(expect),
                  count == expect ? "ok" : "WRONG");
  }
  std::printf("...\n%zu/%zu queries correct\n", correct, queries.size());

  const auto& st = pim.stats();
  std::printf("\nPIM ops: %llu (intra %llu / inter-sub %llu / inter-bank %llu)\n",
              static_cast<unsigned long long>(st.ops),
              static_cast<unsigned long long>(st.intra_steps),
              static_cast<unsigned long long>(st.inter_sub_steps),
              static_cast<unsigned long long>(st.inter_bank_steps));
  std::printf("in-memory query time %s, energy %s\n",
              units::format_time(pim.cost().time_ns).c_str(),
              units::format_energy(pim.cost().energy.total_pj()).c_str());
  return correct == queries.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, {.words = {"queries"}}, run);
}
