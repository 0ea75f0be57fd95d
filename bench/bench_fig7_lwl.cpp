// Reproduces Fig. 7: the modified local-wordline driver's multi-row
// activation — RESET, sequential row-address decodes, wordlines latched
// until the next RESET.  The transient testbench replaces the paper's
// HSPICE run; the rendered waves mirror its RESET / DEC_n / WL_n panels.
#include <cstdio>

#include "circuit/lwl_driver.hpp"
#include "common/config.hpp"
#include "common/table.hpp"

using namespace pinatubo;
using namespace pinatubo::circuit;

int run(const Args&) {
  // Paper-style stimulus: RESET pulse, then decode rows 0 and 2; row 1
  // never addressed; a second RESET at 4 ns releases everything.
  const std::vector<LwlEvent> events{
      {0.1, 0.4, -1},  // RESET
      {1.0, 0.5, 0},   // decode row 0
      {2.0, 0.5, 2},   // decode row 2
  };
  const auto res = simulate_lwl_transient(3, events, 5.0);

  std::printf("Fig. 7 — LWL driver multi-row activation transient:\n\n%s\n",
              res.waveform.to_ascii(72, 0.0, 1.5).c_str());

  Table t("Wordline latch state at t = 5 ns");
  t.set_header({"wordline", "decoded?", "latched high?", "expected"});
  const bool expect[] = {true, false, true};
  int failures = 0;
  for (std::size_t i = 0; i < res.final_states.size(); ++i) {
    t.add_row({"WL_" + std::to_string(i), expect[i] ? "yes" : "no",
               res.final_states[i] ? "yes" : "no",
               expect[i] ? "high" : "low"});
    failures += res.final_states[i] != expect[i];
  }
  t.print();

  // Release check: a trailing RESET must drop every latched wordline.
  auto with_release = events;
  with_release.push_back({4.0, 0.5, -1});
  const auto rel = simulate_lwl_transient(3, with_release, 5.2);
  bool any_high = false;
  for (const bool s : rel.final_states) any_high |= s;
  std::printf("\nafter trailing RESET: %s\n",
              any_high ? "FAIL — wordline stuck" : "all wordlines released");
  failures += any_high;

  std::printf("Fig. 7 validation: %s\n",
              failures == 0 ? "LATCH BEHAVIOUR CORRECT" : "FAILURES");
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) { return run_main(argc, argv, {}, run); }
