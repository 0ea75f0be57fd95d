#include "common/stats.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pinatubo {

double geomean(const std::vector<double>& xs) {
  PIN_CHECK(!xs.empty());
  double log_sum = 0.0;
  for (double x : xs) {
    PIN_CHECK_MSG(x > 0.0, "geomean requires positive values, got " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace pinatubo
