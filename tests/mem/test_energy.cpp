#include "mem/energy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace pinatubo::mem {
namespace {

TEST(EnergyCounter, AddAndGet) {
  EnergyCounter e;
  EXPECT_EQ(e.get(Energy::kPimSense), 0.0);
  e.add(Energy::kPimSense, 2.5);
  e.add(Energy::kPimSense, 1.5);
  e.add(Energy::kBusIo, 3.0);
  EXPECT_EQ(e.get(Energy::kPimSense), 4.0);
  EXPECT_EQ(e.get(Energy::kBusIo), 3.0);
  EXPECT_EQ(e.get(Energy::kPimWrite), 0.0);  // absent
  EXPECT_EQ(e.total_pj(), 7.0);
}

TEST(EnergyCounter, EmptyCounterIsZero) {
  const EnergyCounter e;
  EXPECT_EQ(e.total_pj(), 0.0);
  EXPECT_EQ(e.get(Energy::kCpuCore), 0.0);
}

TEST(EnergyCounter, MergeIntoEmpty) {
  EnergyCounter src;
  src.add(Energy::kPimWrite, 5.0);
  src.add(Energy::kCtrlCmd, 1.0);
  EnergyCounter dst;
  dst.merge(src);
  EXPECT_EQ(dst.get(Energy::kPimWrite), 5.0);
  EXPECT_EQ(dst.get(Energy::kCtrlCmd), 1.0);
  EXPECT_EQ(dst.total_pj(), src.total_pj());
  EXPECT_EQ(dst.to_string(), src.to_string());
}

TEST(EnergyCounter, MergeIntoNonEmptyAddsKeyByKey) {
  EnergyCounter dst;
  dst.add(Energy::kCtrlCmd, 1.0);
  dst.add(Energy::kPimSense, 2.0);
  EnergyCounter src;
  src.add(Energy::kBusIo, 10.0);     // before every dst key
  src.add(Energy::kCtrlCmd, 20.0);   // shared
  src.add(Energy::kPimActivate, 30.0);  // between dst keys
  src.add(Energy::kPimWrite, 40.0);  // after every dst key
  dst.merge(src);
  EXPECT_EQ(dst.get(Energy::kBusIo), 10.0);
  EXPECT_EQ(dst.get(Energy::kCtrlCmd), 21.0);
  EXPECT_EQ(dst.get(Energy::kPimActivate), 30.0);
  EXPECT_EQ(dst.get(Energy::kPimSense), 2.0);
  EXPECT_EQ(dst.get(Energy::kPimWrite), 40.0);
  EXPECT_EQ(dst.total_pj(), 103.0);
  // The source is untouched.
  EXPECT_EQ(src.get(Energy::kPimSense), 0.0);
  EXPECT_EQ(src.total_pj(), 100.0);
}

TEST(EnergyCounter, NegativeAddThrows) {
  EnergyCounter e;
  EXPECT_THROW(e.add(Energy::kPimWrite, -1.0), Error);
  EXPECT_EQ(e.get(Energy::kPimWrite), 0.0);
}

TEST(EnergyCounter, ToStringListsComponentsInNameOrder) {
  EnergyCounter e;
  e.add(Energy::kPimWrite, 1.0);
  e.add(Energy::kBusIo, 2.0);
  e.add(Energy::kCtrlCmd, 3.0);
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
  forward.add(Energy::kAcpimLogic, 1e16);
  forward.add(Energy::kAcpimRead, 1.0);
  forward.add(Energy::kAcpimWrite, 1.0);
  EnergyCounter backward;
  backward.add(Energy::kAcpimWrite, 1.0);
  backward.add(Energy::kAcpimRead, 1.0);
  backward.add(Energy::kAcpimLogic, 1e16);
  EXPECT_EQ(forward.total_pj(), backward.total_pj());
  EXPECT_EQ(forward.total_pj(), (1e16 + 1.0) + 1.0);  // name order

  EnergyCounter merged;
  merged.merge(backward);
  EXPECT_EQ(merged.total_pj(), forward.total_pj());
}

TEST(EnergyCounter, ComponentsAreInNameOrder) {
  // total_pj() sums in enum order, and the recorded ledgers were summed in
  // byte-wise name order; the two must stay the same order.
  for (std::size_t i = 0; i + 1 < kEnergyComponents; ++i)
    EXPECT_LT(std::string(to_string(static_cast<Energy>(i))),
              std::string(to_string(static_cast<Energy>(i + 1))))
        << i;
  EXPECT_STREQ(to_string(Energy::kAcpimLogic), "acpim.logic");
  EXPECT_STREQ(to_string(Energy::kCpuL1), "cpu.L1");
  EXPECT_STREQ(to_string(Energy::kCpuCore), "cpu.core");
  EXPECT_STREQ(to_string(Energy::kPimWrite), "pim.write");
}

TEST(EnergyCounter, ToStringSkipsZeroComponents) {
  EnergyCounter e;
  e.add(Energy::kCpuL3, 4.0);
  e.add(Energy::kMemRead, 0.0);
  const std::string s = e.to_string();
  EXPECT_NE(s.find("; cpu.L3 "), std::string::npos) << s;
  EXPECT_EQ(s.find("mem.read"), std::string::npos) << s;
  EXPECT_EQ(s.find("; ", s.find("; ") + 1), std::string::npos) << s;
}

}  // namespace
}  // namespace pinatubo::mem
