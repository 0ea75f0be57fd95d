#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(Geomean, KnownValue) {
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Geomean, RejectsNonPositive) {
  EXPECT_THROW(geomean({1.0, 0.0}), Error);
  EXPECT_THROW(geomean({}), Error);
}

}  // namespace
}  // namespace pinatubo
