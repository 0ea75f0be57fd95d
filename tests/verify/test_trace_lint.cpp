// Trace-lint tests: real exported traces lint clean; hand-tampered JSON
// trips the exact T-rule it violates.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "obs/trace.hpp"
#include "pinatubo/driver.hpp"
#include "verify/trace_lint.hpp"

namespace pinatubo::verify {
namespace {

/// A real runtime trace: mixed classes, two ranks, host bursts on the bus.
std::string runtime_trace_json(core::PimRuntime& pim) {
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  const std::uint64_t bits = 2 * pim.geometry().row_group_bits();
  Rng rng(42);
  std::vector<core::PimRuntime::Handle> vecs;
  for (int i = 0; i < 8; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    pim.pim_write(vecs.back(), BitVector::random(bits, 0.5, rng));
  }
  pim.pim_begin();
  for (int i = 0; i < 4; ++i)
    pim.pim_op(BitOp::kOr, {vecs[2 * i], vecs[2 * i + 1]}, vecs[2 * i]);
  pim.pim_op(BitOp::kAnd, {vecs[0], vecs[2]}, vecs[0], true);
  pim.pim_op(BitOp::kXor, {vecs[4], vecs[6]}, vecs[4], true);
  pim.pim_barrier();
  return trace.to_chrome_json();
}

/// Minimal well-formed trace with full control over every field.
std::string synthetic(const std::string& events, const std::string& other) {
  return "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\","
         "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"ch0/rank0\"}}" +
         (events.empty() ? "" : "," + events) +
         "],\"displayTimeUnit\":\"ns\",\"otherData\":{" + other + "}}";
}

std::string span(double ts_us, double dur_us, const char* cat = "intra-sub",
                 int tid = 0) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
     << ",\"name\":\"op\",\"cat\":\"" << cat << "\",\"ts\":" << ts_us
     << ",\"dur\":" << dur_us << "}";
  return os.str();
}

TEST(TraceLint, RealRuntimeTraceLintsClean) {
  core::PimRuntime pim;
  TraceStats stats;
  const Report rep = lint_trace_text(runtime_trace_json(pim), &stats);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(stats.spans, 0u);
  EXPECT_GT(stats.tracks, 1u);  // two ranks + a bus track at least
  EXPECT_NEAR(stats.max_end_ns, pim.cost().time_ns,
              1.0 + 1e-9 * pim.cost().time_ns);
  EXPECT_GT(stats.spans_by_category.count("intra-sub"), 0u);
}

TEST(TraceLint, MalformedJsonTripsT01) {
  for (const char* bad :
       {"", "not json at all", "{\"traceEvents\":", "[1,2,3]",
        "{\"traceEvents\":[]}", "{\"otherData\":{}}"}) {
    const Report rep = lint_trace_text(bad);
    EXPECT_TRUE(rep.tripped(Rule::kTraceParse)) << "input: " << bad;
  }
  const Report rep = lint_trace_file("/nonexistent/trace.json");
  EXPECT_TRUE(rep.tripped(Rule::kTraceParse));

  // Syntax errors planted in a real exported trace, which lints clean as
  // is: T01 must fire on the syntax, not on a missing schema.
  core::PimRuntime pim;
  const std::string json = runtime_trace_json(pim);
  ASSERT_TRUE(lint_trace_text(json).ok());
  const std::size_t close = json.rfind('}');
  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = json;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  const std::string unit = "\"displayTimeUnit\":";
  const std::string broken[] = {
      json.substr(0, close) + ",}",           // trailing comma
      json + " trailing",                     // trailing garbage
      json.substr(0, json.rfind('"')),        // unterminated string
      replaced(unit + "\"ns\"", unit),        // missing value
      replaced("},{", "} {"),                 // missing comma
      replaced("ch0/rank0", "ch0/\nrank0"),   // raw control character
  };
  for (const std::string& bad : broken) {
    const std::size_t tail = bad.size() > 40 ? bad.size() - 40 : 0;
    EXPECT_TRUE(lint_trace_text(bad).tripped(Rule::kTraceParse))
        << "input tail: " << bad.substr(tail);
  }
}

TEST(TraceLint, TruncatedRealTraceTripsT01) {
  core::PimRuntime pim;
  const std::string json = runtime_trace_json(pim);
  const Report rep = lint_trace_text(json.substr(0, json.size() / 2));
  EXPECT_TRUE(rep.tripped(Rule::kTraceParse));
}

TEST(TraceLint, SpanPastDeclaredMakespanTripsT02) {
  // One 2000 ns span, but the file claims the timeline ends at 1000 ns.
  const std::string json =
      synthetic(span(0.0, 2.0),
                "\"max_span_end_ns\":1000.0,\"spans\":1,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTracePastMakespan)) << rep.to_string();
}

TEST(TraceLint, OverstatedMakespanTripsT02) {
  // No span comes near the declared end: the makespan is padded.
  const std::string json =
      synthetic(span(0.0, 1.0),
                "\"max_span_end_ns\":5000.0,\"spans\":1,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTracePastMakespan)) << rep.to_string();
}

TEST(TraceLint, OverlappingTrackSpansTripT03) {
  const std::string json =
      synthetic(span(0.0, 1.0) + "," + span(0.5, 1.0),
                "\"max_span_end_ns\":1500.0,\"spans\":2,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceTrackOverlap)) << rep.to_string();
}

TEST(TraceLint, AdjacentSpansDoNotOverlap) {
  // Back-to-back tiling (end == next start) is the normal serial layout.
  const std::string json =
      synthetic(span(0.0, 1.0) + "," + span(1.0, 1.0),
                "\"max_span_end_ns\":2000.0,\"spans\":2,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(TraceLint, CounterSpanMismatchTripsT04) {
  const std::string json = synthetic(
      span(0.0, 1.0) + "," + span(1.0, 1.0),
      "\"max_span_end_ns\":2000.0,\"spans\":2,"
      "\"counters\":{\"pim.steps.intra-sub\":3.0000}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceCounterMismatch)) << rep.to_string();
}

TEST(TraceLint, DishonestSpanCountTripsT04) {
  const std::string json =
      synthetic(span(0.0, 1.0),
                "\"max_span_end_ns\":1000.0,\"spans\":7,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceCounterMismatch)) << rep.to_string();
}

TEST(TraceLint, StatsSummaryIsWellFormedJson) {
  core::PimRuntime pim;
  TraceStats stats;
  const Report rep = lint_trace_text(runtime_trace_json(pim), &stats);
  const std::string summary = stats.to_json(rep);
  // The summary must itself survive the lint parser's JSON reader — lint
  // a wrapper that embeds it as otherData (cheap structural round-trip).
  EXPECT_EQ(summary.front(), '{');
  EXPECT_EQ(summary.back(), '}');
  EXPECT_NE(summary.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"spans\":"), std::string::npos);
}

TEST(TraceLint, SummaryEscapesControlCharacters) {
  // The category arrives JSON-escaped and is stored unescaped; the summary
  // must escape it again, or a raw newline makes the file invalid JSON.
  const std::string json = synthetic(
      span(0.0, 1.0, "intra\\nsub"),
      "\"max_span_end_ns\":1000.0,\"spans\":1,\"counters\":{}");
  TraceStats stats;
  const Report rep = lint_trace_text(json, &stats);
  ASSERT_EQ(stats.spans_by_category.count("intra\nsub"), 1u)
      << rep.to_string();
  const std::string summary = stats.to_json(rep);
  for (const char c : summary)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << summary;
  EXPECT_NE(summary.find("\"intra\\nsub\":1"), std::string::npos)
      << summary;
}

TEST(TraceLint, DeepNestingTripsT01) {
  // Unbounded recursion in the reader would overflow the stack here.
  const std::size_t levels = 100000;
  for (const std::string& open : {std::string("["), std::string("{\"a\":")}) {
    std::string deep;
    for (std::size_t i = 0; i < levels; ++i) deep += open;
    deep += "0";
    deep += std::string(levels, open == "[" ? ']' : '}');
    const Report rep = lint_trace_text(deep);
    ASSERT_TRUE(rep.tripped(Rule::kTraceParse)) << rep.to_string();
    EXPECT_NE(rep.diags[0].message.find("depth"), std::string::npos)
        << rep.diags[0].message;
  }
}

TEST(TraceLint, ModestNestingStillParses) {
  // Well below the cap: an extra otherData field nested 32 deep is fine.
  const std::string nest = std::string(32, '[') + std::string(32, ']');
  const std::string json = synthetic(
      span(0.0, 1.0),
      "\"max_span_end_ns\":1000.0,\"spans\":1,\"counters\":{},"
      "\"extra\":" + nest);
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(TraceLint, MutatedRealTracesNeverCrash) {
  // Seeded mutation loop over a real exported trace: byte flips,
  // truncation, and inserted runs of brackets and quotes.  Whatever the
  // damage, the linter returns a report that names only trace rules.
  core::PimRuntime pim;
  const std::string base = runtime_trace_json(pim);
  ASSERT_TRUE(lint_trace_text(base).ok());
  const char kInserts[] = {'[', ']', '{', '}', '"', ',', ':', '\\'};
  Rng rng(2024);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.uniform_u64(text.size());
      switch (rng.uniform_u64(4)) {
        case 0:  // flip one bit of one byte
          text[at] = static_cast<char>(text[at] ^ (1u << rng.uniform_u64(8)));
          break;
        case 1:  // truncate
          text.resize(at);
          break;
        case 2: {  // a run of one bracket or quote, up to well past the cap
          const char c = kInserts[rng.uniform_u64(sizeof kInserts)];
          text.insert(at, 1 + rng.uniform_u64(200), c);
          break;
        }
        default:  // a random byte
          text[at] = static_cast<char>(rng.uniform_u64(256));
          break;
      }
    }
    const Report rep = lint_trace_text(text);
    for (const Diagnostic& d : rep.diags)
      EXPECT_TRUE(d.rule == Rule::kTraceParse ||
                  d.rule == Rule::kTracePastMakespan ||
                  d.rule == Rule::kTraceTrackOverlap ||
                  d.rule == Rule::kTraceCounterMismatch)
          << "iteration " << iter << ": " << d.to_string();
  }
}

}  // namespace
}  // namespace pinatubo::verify
