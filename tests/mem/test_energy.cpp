#include "mem/energy.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::mem {
namespace {

TEST(EnergyCounter, AddAndGet) {
  EnergyCounter e;
  EXPECT_EQ(e.get("pim.sense"), 0.0);
  e.add("pim.sense", 2.5);
  e.add("pim.sense", 1.5);
  e.add("bus.io", 3.0);
  EXPECT_EQ(e.get("pim.sense"), 4.0);
  EXPECT_EQ(e.get("bus.io"), 3.0);
  EXPECT_EQ(e.get("pim.write"), 0.0);  // absent
  EXPECT_EQ(e.total_pj(), 7.0);
}

TEST(EnergyCounter, EmptyCounterIsZero) {
  const EnergyCounter e;
  EXPECT_EQ(e.total_pj(), 0.0);
  EXPECT_EQ(e.get("cpu.core"), 0.0);
}

TEST(EnergyCounter, MergeIntoEmpty) {
  EnergyCounter src;
  src.add("pim.write", 5.0);
  src.add("ctrl.cmd", 1.0);
  EnergyCounter dst;
  dst.merge(src);
  EXPECT_EQ(dst.get("pim.write"), 5.0);
  EXPECT_EQ(dst.get("ctrl.cmd"), 1.0);
  EXPECT_EQ(dst.total_pj(), src.total_pj());
  EXPECT_EQ(dst.to_string(), src.to_string());
}

TEST(EnergyCounter, MergeIntoNonEmptyAddsKeyByKey) {
  EnergyCounter dst;
  dst.add("ctrl.cmd", 1.0);
  dst.add("pim.sense", 2.0);
  EnergyCounter src;
  src.add("bus.io", 10.0);     // before every dst key
  src.add("ctrl.cmd", 20.0);   // shared
  src.add("pim.activate", 30.0);  // between dst keys
  src.add("pim.write", 40.0);  // after every dst key
  dst.merge(src);
  EXPECT_EQ(dst.get("bus.io"), 10.0);
  EXPECT_EQ(dst.get("ctrl.cmd"), 21.0);
  EXPECT_EQ(dst.get("pim.activate"), 30.0);
  EXPECT_EQ(dst.get("pim.sense"), 2.0);
  EXPECT_EQ(dst.get("pim.write"), 40.0);
  EXPECT_EQ(dst.total_pj(), 103.0);
  // The source is untouched.
  EXPECT_EQ(src.get("pim.sense"), 0.0);
  EXPECT_EQ(src.total_pj(), 100.0);
}

TEST(EnergyCounter, NegativeAddThrows) {
  EnergyCounter e;
  EXPECT_THROW(e.add("pim.write", -1.0), Error);
  EXPECT_EQ(e.get("pim.write"), 0.0);
}

TEST(EnergyCounter, ToStringListsComponentsInNameOrder) {
  EnergyCounter e;
  e.add("pim.write", 1.0);
  e.add("bus.io", 2.0);
  e.add("ctrl.cmd", 3.0);
  const std::string s = e.to_string();
  EXPECT_EQ(s.rfind("total ", 0), 0u) << s;
  const auto bus = s.find("; bus.io ");
  const auto ctrl = s.find("; ctrl.cmd ");
  const auto pim = s.find("; pim.write ");
  ASSERT_NE(bus, std::string::npos) << s;
  ASSERT_NE(ctrl, std::string::npos) << s;
  ASSERT_NE(pim, std::string::npos) << s;
  EXPECT_LT(bus, ctrl);
  EXPECT_LT(ctrl, pim);
}

TEST(EnergyCounter, TotalIsBitIdenticalForAnyAddOrder) {
  // Floating-point addition is not associative: 1e16 + 1 rounds back to
  // 1e16, while 1 + 1 + 1e16 does not.  The total must not depend on the
  // order the components arrived in.
  EnergyCounter forward;
  forward.add("a", 1e16);
  forward.add("b", 1.0);
  forward.add("c", 1.0);
  EnergyCounter backward;
  backward.add("c", 1.0);
  backward.add("b", 1.0);
  backward.add("a", 1e16);
  EXPECT_EQ(forward.total_pj(), backward.total_pj());
  EXPECT_EQ(forward.total_pj(), (1e16 + 1.0) + 1.0);  // name order

  EnergyCounter merged;
  merged.merge(backward);
  EXPECT_EQ(merged.total_pj(), forward.total_pj());
}

}  // namespace
}  // namespace pinatubo::mem
