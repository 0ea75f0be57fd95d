// TraceSession / MetricsRegistry: span recording, counter accounting,
// disabled-session no-ops, and the Chrome trace-event JSON exporter.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "verify/trace_lint.hpp"

namespace pinatubo::obs {
namespace {

/// Whether the exported text parses as JSON (the lint's T01 rule; the other
/// T-rules judge trace content these hand-built sessions do not model).
bool parses(const std::string& json) {
  return !verify::lint_trace_text(json).tripped(verify::Rule::kTraceParse);
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_EQ(m.get("never"), 0u);
  m.add("ops");
  m.add("ops", 4);
  m.add("bytes", 1024);
  EXPECT_EQ(m.get("ops"), 5u);
  EXPECT_EQ(m.get("bytes"), 1024u);
  EXPECT_EQ(m.counters().size(), 2u);
  m.clear();
  EXPECT_EQ(m.get("ops"), 0u);
}

TEST(TraceSession, DisabledDropsEverything) {
  TraceSession s;  // default: disabled
  EXPECT_FALSE(s.enabled());
  const auto t = s.track("ch0/rank0");
  s.span("op", 0.0, 10.0, t);
  s.count("pim.ops", 7);
  EXPECT_TRUE(s.spans().empty());
  EXPECT_EQ(s.metrics().get("pim.ops"), 0u);
  EXPECT_DOUBLE_EQ(s.max_end_ns(), 0.0);
}

TEST(TraceSession, RecordsSpansAndCounters) {
  TraceSession s(true);
  const auto rank = s.track("ch0/rank0");
  const auto bus = s.track("ch0/bus");
  EXPECT_NE(rank, bus);
  EXPECT_EQ(s.track("ch0/rank0"), rank);  // idempotent
  s.span("op0.0 OR r2", 0.0, 120.0, rank, "intra-sub");
  s.span("op0.1 OR r1", 120.0, 40.0, bus, "host-read");
  s.count("pim.ops");
  ASSERT_EQ(s.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(s.max_end_ns(), 160.0);
  EXPECT_EQ(s.spans()[1].track, bus);
  EXPECT_EQ(s.metrics().get("pim.ops"), 1u);
  s.clear();
  EXPECT_TRUE(s.spans().empty());
  EXPECT_TRUE(s.track_names().empty());
}

TEST(TraceSession, SpanValidatesTrackAndTimes) {
  TraceSession s(true);
  EXPECT_THROW(s.span("x", 0.0, 1.0, /*track=*/0), Error);  // unregistered
  const auto t = s.track("t");
  EXPECT_THROW(s.span("x", -1.0, 1.0, t), Error);
  EXPECT_THROW(s.span("x", 0.0, -1.0, t), Error);
}

TEST(TraceSession, ChromeJsonIsValidAndComplete) {
  TraceSession s(true);
  const auto rank = s.track("ch0/rank1");
  s.span("op0.0 OR r2", 10.0, 250.0, rank, "intra-sub");
  s.span("weird \"name\"\n\t\\", 260.0, 5.0, rank);
  s.count("pim.batches");
  const std::string json = s.to_chrome_json();
  EXPECT_TRUE(parses(json)) << json;
  // Required Chrome trace-event pieces.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("ch0/rank1"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"intra-sub\""), std::string::npos);
  // Reconciliation metadata rides along.
  EXPECT_NE(json.find("\"max_span_end_ns\":265.0"), std::string::npos);
  EXPECT_NE(json.find("\"pim.batches\":1"), std::string::npos);
}

TEST(TraceSession, EmptySessionStillSerializes) {
  const TraceSession s(true);
  EXPECT_TRUE(parses(s.to_chrome_json()));
}

// The JSON checker these tests lean on (the lint's reader) must accept any
// well-formed value and reject syntax errors.  Each candidate is planted as a
// field of an otherwise valid trace, followed by a sibling field so a
// truncated candidate cannot be rebalanced by the wrapper's closing braces.
TEST(JsonCheckerSelfTest, AcceptsAndRejects) {
  auto valid = [](const std::string& value) {
    return parses("{\"traceEvents\":[],\"otherData\":{\"max_span_end_ns\":0,"
                  "\"x\":" + value + ",\"y\":0}}");
  };
  EXPECT_TRUE(valid("{}"));
  EXPECT_TRUE(valid("{\"a\":[1,2.5,-3e-2,\"x\",true,null]}"));
  EXPECT_FALSE(valid("{"));
  EXPECT_FALSE(valid("{\"a\":}"));
  EXPECT_FALSE(valid("{\"a\":1,}"));
  EXPECT_FALSE(valid("[1 2]"));
  EXPECT_FALSE(valid("\"unterminated"));
  EXPECT_FALSE(valid("{} trailing"));
  // Numbers follow JSON's grammar, not strtod's.
  EXPECT_TRUE(valid("[0,-0.5,1E+3,2e-0]"));
  EXPECT_FALSE(valid("inf"));
  EXPECT_FALSE(valid("-nan"));
  EXPECT_FALSE(valid("+1"));
  EXPECT_FALSE(valid(".5"));
  EXPECT_FALSE(valid("1."));
  EXPECT_FALSE(valid("0x1p3"));
  EXPECT_FALSE(valid("1e"));
  // \u takes exactly four hex digits.
  EXPECT_TRUE(valid("\"\\u0041\""));
  EXPECT_FALSE(valid("\"\\uzz00\""));
}

}  // namespace
}  // namespace pinatubo::obs
