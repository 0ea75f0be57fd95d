#include "reliability/policy.hpp"

#include <sstream>

#include "common/error.hpp"

namespace pinatubo::reliability {

const char* to_string(SenseVerify v) {
  switch (v) {
    case SenseVerify::kNone:
      return "none";
    case SenseVerify::kDouble:
      return "double";
    case SenseVerify::kReadback:
      return "readback";
  }
  return "?";
}

const char* to_string(WriteVerify v) {
  switch (v) {
    case WriteVerify::kNone:
      return "none";
    case WriteVerify::kParity:
      return "parity";
    case WriteVerify::kReadback:
      return "readback";
  }
  return "?";
}

const char* to_string(VerifyLevel v) {
  switch (v) {
    case VerifyLevel::kOff:
      return "off";
    case VerifyLevel::kAlways:
      return "always";
  }
  return "?";
}

namespace {

const std::vector<std::string> kKnownKeys = {
    "fault.enabled",     "fault.seed",
    "fault.stuck_rate",  "fault.sense_ber",
    "fault.drift_rate",  "fault.endurance_cycles",
    "fault.wearout_rate", "verify.sense",
    "verify.writes",     "verify.level",
    "retry.max_resense",
    "retry.deescalate",  "retry.remap",
    "retry.cpu_fallback", "retry.spare_rows",
};

bool reliability_prefixed(const std::string& key) {
  return key.rfind("fault.", 0) == 0 || key.rfind("verify.", 0) == 0 ||
         key.rfind("retry.", 0) == 0;
}

double rate_in_01(const Config& cfg, const std::string& key, double def) {
  const double v = cfg.get_double(key, def);
  PIN_CHECK_MSG(v >= 0.0 && v <= 1.0,
                key << " = " << v << " must lie in [0, 1]");
  return v;
}

SenseVerify parse_sense_verify(const std::string& s) {
  if (s == "none") return SenseVerify::kNone;
  if (s == "double") return SenseVerify::kDouble;
  if (s == "readback") return SenseVerify::kReadback;
  PIN_UNREACHABLE("verify.sense = '" + s + "'; expected none|double|readback");
}

WriteVerify parse_write_verify(const std::string& s) {
  if (s == "none") return WriteVerify::kNone;
  if (s == "parity") return WriteVerify::kParity;
  if (s == "readback") return WriteVerify::kReadback;
  PIN_UNREACHABLE("verify.writes = '" + s + "'; expected none|parity|readback");
}

VerifyLevel parse_verify_level(const std::string& s) {
  if (s == "off") return VerifyLevel::kOff;
  if (s == "always") return VerifyLevel::kAlways;
  PIN_UNREACHABLE("verify.level = '" + s + "'; expected off|always");
}

}  // namespace

Policy policy_from_config(const Config& cfg) {
  cfg.check_keys("reliability", kKnownKeys, reliability_prefixed);

  Policy p;
  p.fault.enabled = cfg.get_bool("fault.enabled", false);
  p.fault.seed = cfg.get_u64("fault.seed", 1);
  p.fault.stuck_rate = rate_in_01(cfg, "fault.stuck_rate", 0.0);
  p.fault.sense_ber = rate_in_01(cfg, "fault.sense_ber", 0.0);
  p.fault.drift_rate = cfg.get_double("fault.drift_rate", 0.0);
  PIN_CHECK_MSG(p.fault.drift_rate >= 0.0, "fault.drift_rate must be >= 0");
  p.fault.endurance_cycles = cfg.get_double("fault.endurance_cycles", 0.0);
  PIN_CHECK_MSG(p.fault.endurance_cycles >= 0.0,
                "fault.endurance_cycles must be >= 0");
  p.fault.wearout_rate = rate_in_01(cfg, "fault.wearout_rate", 0.0);

  // With faults on, detection defaults to the exact mode on both paths.
  const char* verify_def = p.fault.enabled ? "readback" : "none";
  p.verify.sense = parse_sense_verify(cfg.get_or("verify.sense", verify_def));
  p.verify.writes =
      parse_write_verify(cfg.get_or("verify.writes", verify_def));
  p.verify.level = parse_verify_level(cfg.get_or("verify.level", "always"));

  const std::uint64_t resense = cfg.get_u64("retry.max_resense", 2);
  PIN_CHECK_MSG(resense <= 1000, "retry.max_resense = " << resense
                                                        << " is absurd (> 1000)");
  p.retry.max_resense = static_cast<unsigned>(resense);
  p.retry.deescalate = cfg.get_bool("retry.deescalate", true);
  p.retry.remap = cfg.get_bool("retry.remap", true);
  p.retry.cpu_fallback = cfg.get_bool("retry.cpu_fallback", true);
  const std::uint64_t spares = cfg.get_u64("retry.spare_rows", 4);
  PIN_CHECK_MSG(spares <= 64, "retry.spare_rows = " << spares
                                                    << " exceeds the sane cap (64)");
  p.retry.spare_rows = static_cast<unsigned>(spares);
  return p;
}

std::vector<std::pair<std::string, std::string>> describe(const Policy& p) {
  auto num = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("fault.enabled", p.fault.enabled ? "true" : "false");
  if (p.fault.enabled) {
    rows.emplace_back("fault.seed", std::to_string(p.fault.seed));
    rows.emplace_back("fault.stuck_rate", num(p.fault.stuck_rate));
    rows.emplace_back("fault.sense_ber", num(p.fault.sense_ber));
    rows.emplace_back("fault.drift_rate", num(p.fault.drift_rate));
    rows.emplace_back("fault.endurance_cycles", num(p.fault.endurance_cycles));
    rows.emplace_back("fault.wearout_rate", num(p.fault.wearout_rate));
  }
  rows.emplace_back("verify.sense", to_string(p.verify.sense));
  rows.emplace_back("verify.writes", to_string(p.verify.writes));
  rows.emplace_back("verify.level", to_string(p.verify.level));
  if (p.detection_enabled()) {
    rows.emplace_back("retry.max_resense",
                      std::to_string(p.retry.max_resense));
    rows.emplace_back("retry.deescalate", p.retry.deescalate ? "true" : "false");
    rows.emplace_back("retry.remap", p.retry.remap ? "true" : "false");
    rows.emplace_back("retry.cpu_fallback",
                      p.retry.cpu_fallback ? "true" : "false");
    rows.emplace_back("retry.spare_rows", std::to_string(p.retry.spare_rows));
  }
  return rows;
}

}  // namespace pinatubo::reliability
