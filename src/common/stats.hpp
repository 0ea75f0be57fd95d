// Geometric mean: the paper reports Gmean bars over each figure's
// workloads.
#pragma once

#include <vector>

namespace pinatubo {

/// Geometric mean of strictly-positive values; throws on non-positive input.
double geomean(const std::vector<double>& xs);

}  // namespace pinatubo
