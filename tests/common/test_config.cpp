#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pinatubo {
namespace {

// argv as a program receives it: argv[0] is the program name.
Args args_of(std::vector<std::string> words, const ArgSpec& spec) {
  words.insert(words.begin(), "prog");
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  return parse_args(static_cast<int>(argv.size()), argv.data(), spec);
}

// The Error message parse_args throws for `words`, or "" when it accepts.
std::string error_of(std::vector<std::string> words, const ArgSpec& spec) {
  try {
    args_of(std::move(words), spec);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::from_string(
      "a = 1\n"
      "# comment\n"
      "b.c = hello world  # trailing comment\n"
      "\n"
      "flag = true\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_or("b.c", ""), "hello world");
  EXPECT_TRUE(cfg.get_bool("flag", false));
}

TEST(Config, DefaultsWhenMissing) {
  Config cfg;
  EXPECT_EQ(cfg.get_int("nope", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 2.5), 2.5);
  EXPECT_FALSE(cfg.get("nope").has_value());
}

TEST(Config, ThrowsOnMalformedLine) {
  EXPECT_THROW(Config::from_string("no equals sign"), Error);
}

TEST(Config, ThrowsOnBadTypedValue) {
  auto cfg = Config::from_string("x = abc");
  EXPECT_THROW(cfg.get_int("x", 0), Error);
  EXPECT_THROW(cfg.get_double("x", 0), Error);
  EXPECT_THROW(cfg.get_bool("x", false), Error);
}

TEST(Config, FromArgsAndMerge) {
  auto base = Config::from_string("a=1\nb=2");
  const auto over = args_of({"b=3", " c = 4 "}, {.keys = {"b", "c"}}).config;
  base.merge(over);
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(Config, BoolSpellings) {
  const auto cfg = Config::from_string("a=yes\nb=off\nc=1\nd=false");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, IntegersAreDecimalOnly) {
  // Regression: strto*(..., 0) read "0200" as octal 128 and "0x80" as hex
  // 128, so geometry.rows=0200 silently built a 128-row subarray.
  const auto cfg =
      Config::from_string("oct = 0200\nneg = -010\nhex = 0x80\nx = 0x1000");
  EXPECT_EQ(cfg.get_u64("oct", 0), 200u);
  EXPECT_EQ(cfg.get_u32("oct", 0), 200u);
  EXPECT_EQ(cfg.get_int("oct", 0), 200);
  EXPECT_EQ(cfg.get_int("neg", 0), -10);
  for (const char* key : {"hex", "x"}) {
    EXPECT_THROW(cfg.get_u64(key, 0), Error) << key;
    EXPECT_THROW(cfg.get_u32(key, 0), Error) << key;
    EXPECT_THROW(cfg.get_int(key, 0), Error) << key;
  }
}

TEST(Config, U32RejectsValuesPast32Bits) {
  // Regression: 32-bit keys were static_cast<unsigned> of a u64, so
  // geometry.channels=4294967297 silently became 1 channel.
  const auto cfg = Config::from_string(
      "max = 4294967295\nbig = 4294967297\nneg = -1\nbad = abc");
  EXPECT_EQ(cfg.get_u32("max", 0), 4294967295u);
  EXPECT_EQ(cfg.get_u32("missing", 7), 7u);
  EXPECT_THROW(cfg.get_u32("neg", 0), Error);
  EXPECT_THROW(cfg.get_u32("bad", 0), Error);
  try {
    cfg.get_u32("big", 0);
    ADD_FAILURE() << "4294967297 read as a 32-bit value";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("big"), std::string::npos)
        << e.what();
  }
}

TEST(Config, RejectsNegativeU64) {
  // Regression: strtoull accepts a sign and wraps negatives mod 2^64, so
  // "-1" used to come back as 18446744073709551615.
  const auto cfg = Config::from_string("n = -1\nm = -0x10");
  EXPECT_THROW(cfg.get_u64("n", 0), Error);
  EXPECT_THROW(cfg.get_u64("m", 0), Error);
  // get_int still takes signed values, of course.
  EXPECT_EQ(cfg.get_int("n", 0), -1);
}

TEST(Config, RejectsOutOfRangeIntegers) {
  // Regression: ERANGE from strtoll/strtoull went unchecked, silently
  // clamping to the type extremes.
  const auto cfg = Config::from_string(
      "u = 18446744073709551616\n"   // 2^64
      "i = 9223372036854775808\n"    // 2^63
      "ineg = -9223372036854775809\n"
      "umax = 18446744073709551615\n"
      "imax = 9223372036854775807");
  EXPECT_THROW(cfg.get_u64("u", 0), Error);
  EXPECT_THROW(cfg.get_int("i", 0), Error);
  EXPECT_THROW(cfg.get_int("ineg", 0), Error);
  // The exact extremes still parse.
  EXPECT_EQ(cfg.get_u64("umax", 0), 18446744073709551615ull);
  EXPECT_EQ(cfg.get_int("imax", 0), 9223372036854775807ll);
}

TEST(Config, RejectsOutOfRangeDouble) {
  const auto cfg = Config::from_string("big = 1e999\nsmall = 1e-999");
  EXPECT_THROW(cfg.get_double("big", 0), Error);
  // Underflow is not an error: it rounds toward zero, a usable value.
  EXPECT_NEAR(cfg.get_double("small", 1.0), 0.0, 1e-300);
}

TEST(Config, RejectsEmptyTypedValue) {
  const auto cfg = Config::from_string("x =");
  EXPECT_THROW(cfg.get_int("x", 0), Error);
  EXPECT_THROW(cfg.get_u64("x", 0), Error);
  EXPECT_THROW(cfg.get_double("x", 0), Error);
}

TEST(Config, CheckKeysNamesTheTypoAndListsTheValidKeys) {
  const auto cfg = Config::from_string("x.a = 1\nx.bb = 2\ny.c = 3");
  const auto in_x = [](const std::string& k) { return k.rfind("x.", 0) == 0; };
  EXPECT_NO_THROW(cfg.check_keys("x", {"x.a", "x.bb"}, in_x));
  try {
    cfg.check_keys("x", {"x.a", "x.b"}, in_x);
    ADD_FAILURE() << "x.bb accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown x key 'x.bb'; valid keys: x.a x.b");
  }
}

// The benches' reading of "--scale" (def when absent).
double scale_of(std::vector<std::string> args, double def = 1.0) {
  return args_of(std::move(args), {.options = {"--scale", "--json"}})
      .values.get_fraction("--scale", def);
}

TEST(ParseScale, AcceptsEqualsAndSpaceForms) {
  EXPECT_DOUBLE_EQ(scale_of({"--scale=0.05"}), 0.05);
  EXPECT_DOUBLE_EQ(scale_of({"--scale", "0.05"}), 0.05);
  EXPECT_DOUBLE_EQ(scale_of({"--json", "x.json", "--scale", "0.25"}), 0.25);
  EXPECT_DOUBLE_EQ(scale_of({"--scale=1"}), 1.0);
}

TEST(ParseScale, DefaultWhenAbsent) {
  EXPECT_DOUBLE_EQ(scale_of({}), 1.0);
  EXPECT_DOUBLE_EQ(scale_of({"--json", "x.json"}, 0.25), 0.25);
}

TEST(ParseScale, RejectsMalformedAndOutOfRangeValues) {
  for (const char* bad : {"0.05x", "", "x", "0", "-0.5", "1.5", "nan", "inf",
                          "1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(scale_of({std::string("--scale=") + bad}), Error);
  }
  EXPECT_THROW(scale_of({"--scale"}), Error);
  EXPECT_THROW(scale_of({"--scale", "2"}), Error);
}

TEST(ParseScale, ErrorNamesTheFlag) {
  for (const char* bad : {"0.05x", "2"}) {
    try {
      scale_of({std::string("--scale=") + bad});
      ADD_FAILURE() << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--scale"), std::string::npos);
    }
  }
}

// The "--json" path a bench reads from `args`, or the Error it threw.
std::string path_of(std::vector<std::string> args) {
  try {
    return args_of(std::move(args), {.switches = {"--serial"},
                                     .options = {"--json", "--trace-out"}})
        .values.get_or("--json", "");
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(ParsePathArg, AcceptsEqualsAndSpaceForms) {
  EXPECT_EQ(path_of({"--json=a.json"}), "a.json");
  EXPECT_EQ(path_of({"--json", "a.json"}), "a.json");
  EXPECT_EQ(path_of({"--serial", "--json", "a.json", "--trace-out", "t"}),
            "a.json");
  EXPECT_EQ(path_of({"--trace-out", "t.json"}), "");
}

TEST(ParsePathArg, RejectsFlagAsLastArgument) {
  EXPECT_EQ(path_of({"--json"}), "error: --json needs a value");
  EXPECT_EQ(path_of({"--serial", "--json"}), "error: --json needs a value");
}

TEST(ParsePathArg, RejectsEmptyEqualsValue) {
  EXPECT_EQ(path_of({"--json="}), "error: --json needs a value");
}

TEST(ParsePathArg, RejectsFlagAsValue) {
  // `--json --trace-out t.json` must not write the report to "--trace-out".
  EXPECT_EQ(path_of({"--json", "--trace-out", "t.json"}),
            "error: --json needs a value");
}

TEST(ArgReader, RejectsUndeclaredFlagsAndSwitchValues) {
  const ArgSpec spec{.switches = {"--serial"}, .options = {"--json"}};
  EXPECT_EQ(error_of({"--jsn", "out.json"}, spec), "unknown flag --jsn");
  EXPECT_EQ(error_of({"--bogus=1"}, spec), "unknown flag --bogus");
  EXPECT_EQ(error_of({"--"}, spec), "unknown flag --");
  EXPECT_EQ(error_of({"--serial=yes"}, spec), "--serial takes no value");
  const Args args = args_of({"--serial"}, spec);
  EXPECT_TRUE(args.values.contains("--serial"));
  EXPECT_FALSE(args.values.contains("--json"));
}

TEST(ArgReader, NamedWordsReadThroughTheStrictGetters) {
  const ArgSpec spec{.words = {"n"}};
  EXPECT_EQ(args_of({}, spec).values.get_u32("n", 15), 15u);
  EXPECT_EQ(args_of({"12"}, spec).values.get_u32("n", 15), 12u);
  for (const char* bad : {"abc", "-5", "4294967296", "12x"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(args_of({bad}, spec).values.get_u32("n", 15), Error);
  }
  EXPECT_EQ(error_of({"12", "13"}, spec), "unexpected argument: 13");
  EXPECT_EQ(error_of({"k=v"}, {}), "unexpected argument: k=v");
  const Args files = args_of({"a", "--x", "1", "b"},
                             {.options = {"--x"}, .files = true});
  EXPECT_EQ(files.files, (std::vector<std::string>{"a", "b"}));
}

TEST(ArgReader, OverridesOnlyForDeclaredKeysAndSections) {
  const ArgSpec spec{.keys = {"tech", "rows"}, .sections = {"geometry."}};
  const Args args = args_of({"rows=8", "geometry.banks=4", "tech=pcm"}, spec);
  EXPECT_EQ(args.config.get_u32("rows", 0), 8u);
  EXPECT_EQ(args.config.get_or("geometry.banks", ""), "4");
  EXPECT_EQ(error_of({"row=8"}, spec),
            "unknown config key 'row'; valid keys: tech rows");
  EXPECT_EQ(error_of({"geomtry.banks=4"}, spec),
            "unknown config key 'geomtry.banks'; valid keys: tech rows");
  EXPECT_EQ(error_of({"pcm"}, spec), "override lacks '=': pcm");
  EXPECT_EQ(error_of({"=8"}, spec), "override lacks a key: =8");
}

TEST(ArgReader, ConfigFilesLoadInOrderUnderTheOverridesAndAreChecked) {
  const std::string a = ::testing::TempDir() + "arg_reader_a.cfg";
  const std::string b = ::testing::TempDir() + "arg_reader_b.cfg";
  const std::string typo = ::testing::TempDir() + "arg_reader_typo.cfg";
  std::ofstream(a) << "tech = pcm\nrows = 4\n";
  std::ofstream(b) << "rows = 16\n";
  std::ofstream(typo) << "rowz = 2\n";
  const ArgSpec spec{.files = true, .keys = {"tech", "rows"}};
  const Args args = args_of({"tech=stt", a, b}, spec);
  EXPECT_EQ(args.config.get_or("tech", ""), "stt");
  EXPECT_EQ(args.config.get_u32("rows", 0), 16u);
  EXPECT_EQ(error_of({a, typo}, spec),
            "unknown config key 'rowz'; valid keys: tech rows");
  EXPECT_EQ(error_of({a, "/nonexistent.cfg"}, spec),
            "cannot open config /nonexistent.cfg");
  for (const auto& path : {a, b, typo}) std::remove(path.c_str());
}

}  // namespace
}  // namespace pinatubo
