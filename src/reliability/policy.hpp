// Reliability policy: what faults to inject, how to detect them, how far
// to escalate recovery (DESIGN.md §10).
//
// The policy is a plain config block with three prefixes, all validated:
//
//   fault.*   — the injected fault model (seeded, deterministic):
//     fault.enabled           master switch (default off)
//     fault.seed              fault-model seed, independent of the run seed
//     fault.stuck_rate        per-cell manufacturing stuck-at probability
//     fault.sense_ber         per-bit transient flip probability per sense
//     fault.drift_rate        BER growth per sense epoch of data age
//     fault.endurance_cycles  row writes before wear-out onset (0 = never)
//     fault.wearout_rate      per-write probability of killing a cell past
//                             the endurance knee
//
//   verify.*  — detection, priced honestly through the cost model:
//     verify.sense = none | double | readback
//     verify.writes = none | parity | readback
//     verify.level = off | always    static verifier (DESIGN.md §11):
//                    `always` (the default in every build) checks each
//                    batch's plans, schedule and accounting at flush.
//
//   retry.*   — the escalation ladder:
//     retry.max_resense       extra sense attempts before de-escalating
//     retry.deescalate        split the activation (128 -> 2x64 -> ...)
//     retry.remap             remap persistently-bad rows to spares
//     retry.cpu_fallback      final resort: the op runs on the CPU path
//     retry.spare_rows        spare rows reserved per subarray
//
// Unknown keys under these prefixes are rejected with a clear message —
// a typo in a reliability campaign must fail loudly, not silently run a
// different experiment.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"

namespace pinatubo::reliability {

enum class SenseVerify : std::uint8_t {
  kNone,      ///< trust every sense
  kDouble,    ///< sense twice, compare (misses correlated double faults)
  kReadback,  ///< digital recompute from the stored rows — exact
};

enum class WriteVerify : std::uint8_t {
  kNone,      ///< trust every write
  kParity,    ///< per-word parity maintained by the write path (cheap;
              ///< misses even numbers of flips within one word)
  kReadback,  ///< read the row back and compare — exact
};

/// Whether the static plan/schedule verifier (`verify::Verifier`) gates
/// the runtime and the Pinatubo backend.
enum class VerifyLevel : std::uint8_t {
  kOff,     ///< never run the verifier
  kAlways,  ///< verify each batch (plans + schedule + accounting) at flush
};

const char* to_string(SenseVerify v);
const char* to_string(WriteVerify v);
const char* to_string(VerifyLevel v);

struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double stuck_rate = 0.0;
  double sense_ber = 0.0;
  double drift_rate = 0.0;
  double endurance_cycles = 0.0;
  double wearout_rate = 0.0;
};

struct VerifyConfig {
  SenseVerify sense = SenseVerify::kNone;
  WriteVerify writes = WriteVerify::kNone;
  VerifyLevel level = VerifyLevel::kAlways;
};

struct RetryConfig {
  unsigned max_resense = 2;
  bool deescalate = true;
  bool remap = true;
  bool cpu_fallback = true;
  unsigned spare_rows = 4;
};

struct Policy {
  FaultConfig fault;
  VerifyConfig verify;
  RetryConfig retry;

  /// Any detection configured (the driver builds its recovery path iff so).
  bool detection_enabled() const {
    return verify.sense != SenseVerify::kNone ||
           verify.writes != WriteVerify::kNone;
  }
  /// Spare rows must actually be reserved in the allocator.
  bool spares_needed() const { return detection_enabled() && retry.remap; }
};

/// Parses and validates the `fault.* / verify.* / retry.*` block of `cfg`.
/// When `fault.enabled` is set and no verify mode is given, detection
/// defaults to full read-back on both paths (safety first; campaigns
/// de-tune explicitly).  Throws `Error` on unknown keys under the three
/// prefixes, bad enum values, or out-of-range rates.
Policy policy_from_config(const Config& cfg);

/// (key, value) rows describing the active policy — for explorer tables
/// and campaign logs.
std::vector<std::pair<std::string, std::string>> describe(const Policy& p);

}  // namespace pinatubo::reliability
