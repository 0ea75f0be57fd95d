#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace pinatubo::bench {
namespace {

sim::BackendResult timed(double bitwise_ns) {
  sim::BackendResult r;
  r.bitwise.time_ns = bitwise_ns;
  return r;
}

SuiteRun suite(const std::string& name, const std::vector<double>& ns) {
  SuiteRun run{name, {}};
  for (const double t : ns) run.results.push_back(timed(t));
  return run;
}

const Metric kBitwiseTime = [](const sim::BackendResult& r) {
  return r.bitwise.time_ns;
};

// Four workloads in two groups, and baselines whose DRAM and PCM times
// differ, so every ratio below names the baseline it was divided into.
struct MatrixFixture : ::testing::Test {
  std::vector<apps::NamedTrace> workloads{{"Vector", "v0", {}},
                                          {"Vector", "v1", {}},
                                          {"Graph", "g0", {}},
                                          {"Fastbit", "f0", {}}};
  Baselines base{suite("SIMD-DRAM", {100, 200, 300, 400}),
                 suite("SIMD-PCM", {1000, 2000, 3000, 4000})};
};

TEST_F(MatrixFixture, VsDramPicksTheBaselinePerColumn) {
  const std::vector<SuiteRun> runs{suite("A", {10, 20, 30, 40}),
                                   suite("B", {10, 20, 30, 40})};
  const auto m = build_matrix(workloads, base, runs, {true, false},
                              kBitwiseTime);
  ASSERT_EQ(m.ratios.size(), 4u);
  EXPECT_EQ(m.backend_names, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(m.column(0), (std::vector<double>{10, 10, 10, 10}));
  EXPECT_EQ(m.column(1), (std::vector<double>{100, 100, 100, 100}));
  EXPECT_DOUBLE_EQ(m.gmean[0], 10.0);
  EXPECT_DOUBLE_EQ(m.gmean[1], 100.0);
}

TEST_F(MatrixFixture, RowSubsetGmeanIsGeomeanOfThoseRowsOnly) {
  // Ratios vs PCM: 1000, 100, 2, 8 — the Vector rows would dominate a
  // Gmean over every row.
  const std::vector<SuiteRun> runs{suite("P", {1, 20, 1500, 500})};
  const std::vector<std::size_t> rows{2, 3};
  const auto m = build_matrix(workloads, base, runs, {false}, kBitwiseTime,
                              rows);
  EXPECT_EQ(m.workload_names, (std::vector<std::string>{"g0", "f0"}));
  EXPECT_EQ(m.workload_groups, (std::vector<std::string>{"Graph", "Fastbit"}));
  EXPECT_EQ(m.column(0), (std::vector<double>{2, 8}));
  EXPECT_EQ(m.gmean[0], geomean({2, 8}));
  EXPECT_DOUBLE_EQ(m.gmean[0], 4.0);

  const auto all = build_matrix(workloads, base, runs, {false}, kBitwiseTime);
  EXPECT_EQ(all.workload_names.size(), 4u);
  EXPECT_EQ(all.gmean[0], geomean({1000, 100, 2, 8}));
}

TEST_F(MatrixFixture, RejectsNonPositiveMetricAndMismatchedBaselineFlags) {
  const std::vector<SuiteRun> zero{suite("Z", {10, 0, 30, 40})};
  EXPECT_THROW(build_matrix(workloads, base, zero, {false}, kBitwiseTime),
               Error);
  // The zero sits on a row the subset skips.
  EXPECT_NO_THROW(build_matrix(workloads, base, zero, {false}, kBitwiseTime,
                               {0, 2, 3}));
  EXPECT_THROW(build_matrix(workloads, base, zero, {false, true},
                            kBitwiseTime),
               Error);
}

TEST_F(MatrixFixture, TableListsGroupsOfTheSelectedRows) {
  const std::vector<SuiteRun> runs{suite("P", {1, 20, 1500, 500})};
  const auto m = build_matrix(workloads, base, runs, {false}, kBitwiseTime,
                              {3});
  const std::string text = matrix_table("t", m).to_string();
  EXPECT_NE(text.find("Fastbit"), std::string::npos);
  EXPECT_EQ(text.find("Vector"), std::string::npos);
}

TEST(JsonReport, EscapesControlCharactersLikeTheTraceWriter) {
  const std::string path = ::testing::TempDir() + "bench_util_escape.json";
  JsonReport r;
  r.add("k\"\\\n\t\x01", "v");
  r.write(path);
  std::ifstream f(path);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\n  \"k\\\"\\\\\\n\\t\\u0001\": \"v\"\n}\n");
  std::remove(path.c_str());
}

TEST(JsonReport, WriteFailureThrows) {
  // Linux's /dev/full accepts the open and fails the flush.
  JsonReport r;
  r.add("x", 1.0);
  EXPECT_THROW(r.write("/dev/full"), Error);
}

}  // namespace
}  // namespace pinatubo::bench
