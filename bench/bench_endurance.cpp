// Extension beyond the paper: PCM write endurance under PIM.
//
// Every Pinatubo op ends in a row write, and chained ops (Pinatubo-2, or
// any AND/XOR fold) hammer their accumulator row once per step.  This runs
// a sustained multi-operand OR workload through the functional runtime for
// both configurations and reads the wear ledger: row writes, hot-spot
// imbalance, and the implied lifetime of the hottest row at a sustained
// op rate — multi-row activation turns out to be an ENDURANCE feature,
// not just a performance one.
//
// A second section closes the loop with the fault model (DESIGN.md §10):
// the same hammering runs with an endurance knee + wear-out injection and
// write-verify + spare-row remapping enabled, measuring how long the
// accumulator row actually survives and how far row sparing stretches it.
//
// `--json BENCH_endurance.json` writes the headline numbers.
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "pinatubo/driver.hpp"

using namespace pinatubo;

namespace {

struct WearResult {
  mem::WearTracker wear;
  double op_time_ns;
};

WearResult run_wear(unsigned max_rows) {
  core::PimRuntime::Options opts;
  opts.max_rows = max_rows;
  core::PimRuntime pim(mem::Geometry{}, opts);
  Rng rng(5);

  const std::uint64_t bits = 1ull << 14;
  std::vector<core::PimRuntime::Handle> vecs;
  for (int i = 0; i < 64; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    pim.pim_write(vecs.back(), BitVector::random(bits, 0.3, rng));
  }
  pim.memory().wear().reset();  // measure op-induced wear only
  pim.reset_cost();

  // 50 rounds of a 64-operand OR accumulated into the last vector.
  for (int round = 0; round < 50; ++round)
    pim.pim_op(BitOp::kOr, vecs, vecs.back());
  return {pim.memory().wear(), pim.cost().time_ns};
}

// Hammer an accumulator row through the wear-out fault model until spare
// rows start dying: measures writes-to-first-remap (the row's real
// lifetime under the injected knee) and how many spares the workload eats.
struct WearoutRun {
  std::uint64_t rounds = 0;
  std::uint64_t first_remap_round = 0;  ///< 0 = the row never died
  std::uint64_t remaps = 0;
  std::uint64_t wearout_cells = 0;
  std::uint64_t detected = 0;
  double knee = 0;
  double wearout_rate = 0;
};

WearoutRun run_wearout() {
  core::PimRuntime::Options opts;
  opts.max_rows = 2;  // the chained config: 63 accumulator writes per op
  opts.reliability.fault.enabled = true;
  opts.reliability.fault.endurance_cycles = 500;
  opts.reliability.fault.wearout_rate = 0.1;
  // Persistent faults only: write-verify + remap, no sense noise.
  opts.reliability.verify.sense = reliability::SenseVerify::kNone;
  opts.reliability.verify.writes = reliability::WriteVerify::kReadback;
  opts.reliability.retry.spare_rows = 16;
  core::PimRuntime pim(mem::Geometry{}, opts);
  Rng rng(5);

  const std::uint64_t bits = 1ull << 14;
  std::vector<core::PimRuntime::Handle> vecs;
  for (int i = 0; i < 64; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    pim.pim_write(vecs.back(), BitVector::random(bits, 0.3, rng));
  }

  WearoutRun r;
  r.rounds = 40;
  r.knee = opts.reliability.fault.endurance_cycles;
  r.wearout_rate = opts.reliability.fault.wearout_rate;
  for (std::uint64_t round = 1; round <= r.rounds; ++round) {
    pim.pim_op(BitOp::kOr, vecs, vecs.back());
    if (r.first_remap_round == 0 && pim.stats().remaps > 0)
      r.first_remap_round = round;
  }
  r.remaps = pim.stats().remaps;
  r.detected = pim.stats().detected_faults;
  r.wearout_cells = pim.fault_model()->wearout_cells();
  return r;
}

}  // namespace

int run(const Args& args) {
  const std::string json_path = args.values.get_or("--json", "");
  const auto pin128 = run_wear(128);
  const auto pin2 = run_wear(2);

  // PCM cell endurance ~1e8; assume the DIMM sustains ops back-to-back.
  const double endurance = 1e8;
  auto rate = [](const WearResult& r) {
    return static_cast<double>(r.wear.total_row_writes()) /
           (r.op_time_ns * 1e-9);
  };

  Table t("Extension — PCM endurance under chained vs multi-row ops");
  t.set_header({"metric", "Pinatubo-128", "Pinatubo-2"});
  t.add_row({"row writes (50x 64-op OR)",
             std::to_string(pin128.wear.total_row_writes()),
             std::to_string(pin2.wear.total_row_writes())});
  t.add_row({"hottest row writes", std::to_string(pin128.wear.max_row_writes()),
             std::to_string(pin2.wear.max_row_writes())});
  t.add_row({"wear imbalance (max/mean)",
             Table::num(pin128.wear.imbalance(), 3),
             Table::num(pin2.wear.imbalance(), 3)});
  t.add_row({"workload time", units::format_time(pin128.op_time_ns),
             units::format_time(pin2.op_time_ns)});
  auto lifetime_s = [&](const WearResult& r) {
    return r.wear.lifetime_years(endurance, rate(r)) * 365.25 * 24 * 3600;
  };
  t.add_row({"hot-row lifetime @1e8 cycles, 100% duty",
             Table::num(lifetime_s(pin128), 3) + " s",
             Table::num(lifetime_s(pin2), 3) + " s"});
  // Rotating the accumulator across the subarray's 128 rows (a trivial
  // allocator policy) spreads the hot spot.
  t.add_row({"ditto, with 128-row accumulator rotation",
             Table::num(lifetime_s(pin128) * 128 / 3600, 3) + " h",
             Table::num(lifetime_s(pin2) * 128 / 3600, 3) + " h"});
  t.add_note("a 2-row chain writes its accumulator once per step: 63");
  t.add_note("intermediate writes per op vs one for a 128-row activation —");
  t.add_note("multi-row activation is an endurance feature, and sustained");
  t.add_note("PIM accumulation NEEDS wear rotation: a hammered PCM row");
  t.add_note("dies in seconds at full duty cycle");
  t.print();

  const double wear_ratio =
      static_cast<double>(pin2.wear.max_row_writes()) /
      static_cast<double>(pin128.wear.max_row_writes());
  std::printf("\nhot-row wear, Pinatubo-2 vs Pinatubo-128: %.0fx\n",
              wear_ratio);

  // Lifetime under the injected wear-out model: same Pinatubo-2 hammering,
  // but cells actually die past the endurance knee and write-verify +
  // spare-row remapping keep the results correct (DESIGN.md §10).
  const auto wo = run_wearout();
  Table w("Lifetime under the wear-out fault model (Pinatubo-2)");
  w.set_header({"metric", "value"});
  w.add_row({"endurance knee (writes)",
             std::to_string(static_cast<std::uint64_t>(wo.knee))});
  w.add_row({"cell-kill rate past knee", Table::num(wo.wearout_rate, 2)});
  w.add_row({"rounds of 64-op OR", std::to_string(wo.rounds)});
  w.add_row({"round of first remap",
             wo.first_remap_round ? std::to_string(wo.first_remap_round)
                                  : "never"});
  // 63 accumulator writes per round: writes the hot row survived before
  // its first cell died and the row was retired to a spare.
  w.add_row({"hot-row writes at first death",
             wo.first_remap_round
                 ? std::to_string(wo.first_remap_round * 63)
                 : "-"});
  w.add_row({"wear-out cells killed", std::to_string(wo.wearout_cells)});
  w.add_row({"faults caught by write-verify", std::to_string(wo.detected)});
  w.add_row({"spare-row remaps", std::to_string(wo.remaps)});
  w.add_note("each remap retires the worn row and restarts the wear clock");
  w.add_note("on a fresh spare: N spares stretch hot-row lifetime ~(N+1)x");
  w.print();

  bench::JsonReport rep;
  rep.add("row_writes_pin128",
          static_cast<double>(pin128.wear.total_row_writes()));
  rep.add("row_writes_pin2",
          static_cast<double>(pin2.wear.total_row_writes()));
  rep.add("hot_row_writes_pin128",
          static_cast<double>(pin128.wear.max_row_writes()));
  rep.add("hot_row_writes_pin2",
          static_cast<double>(pin2.wear.max_row_writes()));
  rep.add("wear_imbalance_pin128", pin128.wear.imbalance());
  rep.add("wear_imbalance_pin2", pin2.wear.imbalance());
  rep.add("hot_row_lifetime_s_pin128", lifetime_s(pin128));
  rep.add("hot_row_lifetime_s_pin2", lifetime_s(pin2));
  rep.add("hot_row_wear_ratio", wear_ratio);
  rep.add("wearout_knee_writes", wo.knee);
  rep.add("wearout_rate", wo.wearout_rate);
  rep.add("wearout_first_remap_round",
          static_cast<double>(wo.first_remap_round));
  rep.add("wearout_hot_row_writes_at_death",
          static_cast<double>(wo.first_remap_round * 63));
  rep.add("wearout_cells_killed", static_cast<double>(wo.wearout_cells));
  rep.add("wearout_detected_faults", static_cast<double>(wo.detected));
  rep.add("wearout_remaps", static_cast<double>(wo.remaps));
  rep.write(json_path);
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, {.options = {"--json"}}, run);
}
