#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/vector_workload.hpp"
#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

OpTrace sample() {
  OpTrace t;
  t.name = "sample";
  t.scalar_ops = 1234;
  t.scalar_bytes = 5678;
  t.result_density = 0.25;
  t.ops.push_back({BitOp::kOr, {1, 2, 3}, 3, 4096, false});
  t.ops.push_back({BitOp::kXor, {3, 4}, 5, 4096, true});
  t.ops.push_back({BitOp::kInv, {5}, 6, 4096, false});
  return t;
}

bool traces_equal(const OpTrace& a, const OpTrace& b) {
  if (a.name != b.name || a.scalar_ops != b.scalar_ops ||
      a.scalar_bytes != b.scalar_bytes ||
      std::abs(a.result_density - b.result_density) > 1e-12 ||
      a.ops.size() != b.ops.size())
    return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const auto& x = a.ops[i];
    const auto& y = b.ops[i];
    if (x.op != y.op || x.srcs != y.srcs || x.dst != y.dst ||
        x.bits != y.bits || x.host_reads_result != y.host_reads_result)
      return false;
  }
  return true;
}

TEST(TraceIo, RoundTrip) {
  std::stringstream ss;
  save_trace(sample(), ss);
  EXPECT_TRUE(traces_equal(load_trace(ss), sample()));
}

TEST(TraceIo, FormatIsReadable) {
  std::stringstream ss;
  save_trace(sample(), ss);
  const auto text = ss.str();
  EXPECT_NE(text.find("trace sample"), std::string::npos);
  EXPECT_NE(text.find("op OR 4096 3 0 1 2 3"), std::string::npos);
  EXPECT_NE(text.find("op XOR 4096 5 1 3 4"), std::string::npos);
  EXPECT_NE(text.find("end"), std::string::npos);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\ntrace t\nscalar 1 2 0.5\n\n# more\nop INV 8 1 0 0\nend\n";
  const auto t = load_trace(ss);
  EXPECT_EQ(t.name, "t");
  ASSERT_EQ(t.ops.size(), 1u);
  EXPECT_EQ(t.ops[0].op, BitOp::kInv);
}

TEST(TraceIo, RejectsMalformedStreams) {
  {
    std::stringstream ss("op OR 8 1 0 2\nend\n");  // no header
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nscalar 1 2 0.5\n");  // no end
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nop NAND 8 1 0 2\nend\n");  // bad op
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nop OR 8 1 0\nend\n");  // no operands
    EXPECT_THROW(load_trace(ss), Error);
  }
}

/// The diagnostic load_trace throws for `text`, or "" if it loads.
std::string load_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    load_trace(ss);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, RejectsNegativeFields) {
  // `istream >> std::uint64_t` wraps -1 to 2^64 - 1 without complaint.
  for (const char* line : {"op OR -64 1 0 2 3", "op OR 64 -1 0 2 3",
                           "op OR 64 1 0 2 -3", "scalar -5 2 0.5"}) {
    const std::string err =
        load_error(std::string("trace t\n") + line + "\nend\n");
    EXPECT_NE(err.find("negative field"), std::string::npos)
        << line << ": " << err;
  }
}

TEST(TraceIo, RejectsTextAfterTheOperandIds) {
  const std::string err =
      load_error("trace t\nop OR 64 1 0 2 3 junk\nend\n");
  EXPECT_NE(err.find("after the operand ids"), std::string::npos) << err;
  EXPECT_NE(load_error("trace t\nop OR 64 1 0 2 3x\nend\n"), "");
}

TEST(TraceIo, RejectsHostFlagOtherThanZeroOrOne) {
  const std::string err = load_error("trace t\nop OR 64 1 2 2 3\nend\n");
  EXPECT_NE(err.find("host flag"), std::string::npos) << err;
  EXPECT_EQ(load_error("trace t\nop OR 64 1 1 2 3\nend\n"), "");
}

TEST(TraceIo, RejectsBadScalarLines) {
  // A density of 7.5 must fail here, not later in AC-PIM pricing as a
  // negative write energy.
  EXPECT_NE(load_error("trace t\nscalar 10 20 7.5\nend\n")
                .find("result density"),
            std::string::npos);
  EXPECT_NE(load_error("trace t\nscalar 10 20 0.5 junk\nend\n")
                .find("bad scalar line"),
            std::string::npos);
  EXPECT_EQ(load_error("trace t\nscalar 10 20 1e-05\nend\n"), "");
}

TEST(TraceIo, FileRoundTripOfRealWorkload) {
  const auto trace =
      apps::vector_trace(apps::VectorSpec::parse("14-8-3s"));
  const std::string path = "/tmp/pinatubo_trace_test.txt";
  save_trace_file(trace, path);
  EXPECT_TRUE(traces_equal(load_trace_file(path), trace));
  EXPECT_THROW(load_trace_file("/nonexistent/dir/x.txt"), Error);
}

}  // namespace
}  // namespace pinatubo::sim
