// Protocol-layer units: the Json wire type, the bit-exact hexfloat
// rendering, frame construction, and parseRequest's error paths —
// including a seed-deterministic mutation fuzz over well-formed frames
// (scale it up with DODA_FUZZ_ITERS, as tests/test_fuzz.cpp does).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "algorithms/gathering.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace doda::server {
namespace {

std::uint64_t bitsOf(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// ------------------------------------------------------------------ Json

TEST(Json, DumpIsByteStableAndOrderPreserving) {
  Json frame = Json::object({{"id", 7},
                             {"method", "job.submit"},
                             {"params", Json::object({{"n", 16},
                                                      {"zipf", 1.5}})}});
  EXPECT_EQ(frame.dump(),
            "{\"id\":7,\"method\":\"job.submit\","
            "\"params\":{\"n\":16,\"zipf\":1.5}}");
  // Insertion order is the wire order — dump twice, byte-identical.
  EXPECT_EQ(frame.dump(), frame.dump());
}

TEST(Json, IntegersStayIntegersAndDoublesStayDoubles) {
  EXPECT_EQ(Json(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(42.0).dump(), "42.0");  // the ".0" marks the double kind
  EXPECT_EQ(Json(-0.5).dump(), "-0.5");
  // Round-trip preserves the kind.
  EXPECT_TRUE(Json::parse("42").isInt());
  EXPECT_TRUE(Json::parse("42.0").type() == Json::Type::kDouble);
  // Equality is strict about the numeric kind.
  EXPECT_FALSE(Json(std::int64_t{1}) == Json(1.0));
}

TEST(Json, ParseDumpRoundTripsEveryType) {
  const std::vector<std::string> documents = {
      "null",
      "true",
      "false",
      "0",
      "-9223372036854775808",
      "9223372036854775807",
      "3.141592653589793",
      "1e-300",
      "\"\"",
      "\"plain\"",
      "\"quote \\\" backslash \\\\ tab \\t newline \\n\"",
      "[]",
      "[1,2,[3,[4]]]",
      "{}",
      "{\"a\":1,\"b\":{\"c\":[true,null]},\"d\":\"x\"}",
  };
  for (const auto& text : documents) {
    const Json parsed = Json::parse(text);
    EXPECT_EQ(parsed.dump(), text) << "document: " << text;
    EXPECT_TRUE(Json::parse(parsed.dump()) == parsed);
  }
}

TEST(Json, ParseHandlesUnicodeEscapes) {
  const Json doc = Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"");
  EXPECT_EQ(doc.asString(), "A\xc3\xa9\xf0\x9f\x98\x80");  // A é 😀
}

TEST(Json, EqualityIgnoresObjectOrder) {
  const Json a = Json::parse("{\"x\":1,\"y\":2}");
  const Json b = Json::parse("{\"y\":2,\"x\":1}");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Json::parse("{\"x\":1,\"y\":3}"));
  EXPECT_FALSE(a == Json::parse("{\"x\":1}"));
}

TEST(Json, ParseRejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "",
      "{",
      "}",
      "{\"a\":}",
      "{\"a\" 1}",
      "[1,]",
      "[1 2]",
      "nul",
      "truth",
      "+1",
      "01",
      "1.",
      "1e",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"half surrogate \\ud83d\"",
      "\"raw control \x01\"",
      "{} trailing",
      "1 1",
  };
  for (const auto& text : bad)
    EXPECT_THROW(Json::parse(text), JsonParseError) << "document: " << text;
}

TEST(Json, ParseBoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += '[';
  for (int i = 0; i < 70; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonParseError);       // default cap 64
  EXPECT_NO_THROW(Json::parse(deep, 128));               // explicit headroom
}

TEST(Json, HugeIntegersFallBackToDouble) {
  // One past int64 max: still parses, as a double.
  const Json doc = Json::parse("9223372036854775808");
  EXPECT_TRUE(doc.type() == Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(doc.asDouble(), 9223372036854775808.0);
}

TEST(Json, FindAndAccessors) {
  const Json doc = Json::parse("{\"a\":1,\"b\":\"x\",\"c\":[true]}");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->asInt(), 1);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.find("c")->asArray().size(), 1u);
  EXPECT_EQ(Json(5).find("a"), nullptr);  // non-objects find nothing
}

// ------------------------------------------------------------- hexfloat

TEST(HexDouble, RoundTripsBitExactly) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1.0 / 3.0,
      3.141592653589793,
      6.02214076e23,
      1e-300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),        // smallest normal
      std::numeric_limits<double>::denorm_min(),  // smallest subnormal
      -std::numeric_limits<double>::denorm_min() * 12345,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (const double value : values) {
    const std::string text = hexDouble(value);
    const double back = parseHexDouble(text);
    EXPECT_EQ(bitsOf(back), bitsOf(value))
        << "value " << value << " rendered as " << text;
    // The rendering must also be a valid C hexfloat for strtod.
    EXPECT_EQ(bitsOf(std::strtod(text.c_str(), nullptr)), bitsOf(value));
  }
  EXPECT_TRUE(std::isnan(parseHexDouble(
      hexDouble(std::numeric_limits<double>::quiet_NaN()))));
}

TEST(HexDouble, FixedFormsAreStable) {
  EXPECT_EQ(hexDouble(0.0), "0x0p+0");
  EXPECT_EQ(hexDouble(-0.0), "-0x0p+0");
  EXPECT_EQ(hexDouble(1.0), "0x1.0000000000000p+0");
  EXPECT_EQ(hexDouble(2.0), "0x1.0000000000000p+1");
  EXPECT_EQ(hexDouble(1.5), "0x1.8000000000000p+0");
  EXPECT_EQ(hexDouble(std::numeric_limits<double>::denorm_min()),
            "0x1.0000000000000p-1074");
}

TEST(HexDouble, ParserAcceptsStandardVariantsAndRejectsJunk) {
  EXPECT_EQ(parseHexDouble("0x.8p+1"), 1.0);
  EXPECT_EQ(parseHexDouble("0x10p0"), 16.0);
  EXPECT_EQ(parseHexDouble("-0X1P-1"), -0.5);
  EXPECT_THROW(parseHexDouble("1.5"), std::invalid_argument);
  EXPECT_THROW(parseHexDouble("0x"), std::invalid_argument);
  EXPECT_THROW(parseHexDouble("0x1p"), std::invalid_argument);
  EXPECT_THROW(parseHexDouble("0x1p+2x"), std::invalid_argument);
}

TEST(StatsJson, ShapeMatchesProtocolSpec) {
  sim::MeasureConfig config;
  config.node_count = 8;
  config.trials = 16;
  config.seed = 42;
  config.threads = 1;
  const auto result = sim::measureRandomized(
      config, [](sim::TrialContext&) {
        return std::make_unique<algorithms::Gathering>();
      });
  const Json stats = statsJson(result);
  const Json* interactions = stats.find("interactions");
  ASSERT_NE(interactions, nullptr);
  for (const char* key : {"count", "mean", "stddev", "ci95", "min", "max",
                          "mean_hex", "stddev_hex"})
    EXPECT_NE(interactions->find(key), nullptr) << "missing key " << key;
  EXPECT_EQ(interactions->find("count")->asInt(), 16);
  // The hexfloat twin decodes to the exact decimal field's value.
  EXPECT_EQ(bitsOf(parseHexDouble(interactions->find("mean_hex")->asString())),
            bitsOf(result.interactions.mean()));
  ASSERT_NE(stats.find("failed_trials"), nullptr);
  EXPECT_EQ(stats.find("failed_trials")->asInt(), 0);
}

// --------------------------------------------------------- parseRequest

int codeOf(const ProtocolError& e) { return static_cast<int>(e.code); }

testing::AssertionResult failsWith(const std::string& line, ErrorCode code,
                                   std::size_t max_frame = 1 << 20) {
  try {
    parseRequest(line, max_frame);
    return testing::AssertionFailure() << "parsed: " << line;
  } catch (const ProtocolError& e) {
    if (e.code == code) return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "expected code " << static_cast<int>(code) << ", got "
           << codeOf(e) << " for: " << line;
  }
}

TEST(ParseRequest, AcceptsMinimalAndFullFrames) {
  const Request bare = parseRequest("{\"id\":1,\"method\":\"ping\"}", 1 << 20);
  EXPECT_EQ(bare.method, "ping");
  EXPECT_EQ(bare.id.asInt(), 1);
  EXPECT_TRUE(bare.params.isObject());
  EXPECT_TRUE(bare.params.asObject().empty());

  const Request full = parseRequest(
      "{\"id\":\"abc\",\"method\":\"job.status\",\"params\":{\"job\":3}}",
      1 << 20);
  EXPECT_EQ(full.id.asString(), "abc");
  EXPECT_EQ(full.params.find("job")->asInt(), 3);
}

TEST(ParseRequest, ErrorPaths) {
  EXPECT_TRUE(failsWith("not json", ErrorCode::kParseError));
  EXPECT_TRUE(failsWith("{\"id\":1,\"method\":\"ping\"", ErrorCode::kParseError));
  EXPECT_TRUE(failsWith("[1,2,3]", ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("\"ping\"", ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"method\":\"ping\"}", ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"id\":null,\"method\":\"ping\"}",
                        ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"id\":[1],\"method\":\"ping\"}",
                        ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"id\":1}", ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"id\":1,\"method\":7}", ErrorCode::kInvalidRequest));
  EXPECT_TRUE(failsWith("{\"id\":1,\"method\":\"ping\",\"params\":[]}",
                        ErrorCode::kInvalidParams));
  EXPECT_TRUE(failsWith(std::string(200, 'x'), ErrorCode::kFrameTooLarge,
                        /*max_frame=*/128));
}

TEST(Frames, ResponseErrorAndNotificationShapes) {
  EXPECT_EQ(makeResponse(Json(1), Json::object({{"ok", true}})).dump(),
            "{\"id\":1,\"result\":{\"ok\":true}}");
  EXPECT_EQ(makeError(Json(), ErrorCode::kParseError, "bad").dump(),
            "{\"id\":null,\"error\":{\"code\":-32700,\"message\":\"bad\"}}");
  EXPECT_EQ(makeNotification("job.progress",
                             Json::object({{"job", 1}})).dump(),
            "{\"method\":\"job.progress\",\"params\":{\"job\":1}}");
}

// ---------------------------------------------------------------- fuzz

std::size_t fuzzIters(std::size_t fallback) {
  const char* env = std::getenv("DODA_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  const unsigned long long parsed = std::strtoull(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Mutates well-formed frames byte-wise and feeds them to parseRequest:
/// every outcome must be a parsed Request or a ProtocolError — never a
/// crash, never a different exception type escaping the parser.
TEST(ParseRequestFuzz, MutatedFramesNeverEscapeTheErrorModel) {
  const std::vector<std::string> seeds = {
      "{\"id\":1,\"method\":\"ping\"}",
      "{\"id\":2,\"method\":\"job.submit\",\"params\":{\"kind\":"
      "\"randomized\",\"n\":16,\"trials\":8,\"seed\":7,\"zipf\":1.5}}",
      "{\"id\":\"s\",\"method\":\"job.subscribe\",\"params\":{\"job\":1}}",
      "{\"id\":3,\"method\":\"job.result\",\"params\":{\"job\":"
      "9223372036854775807}}",
  };
  util::Rng rng(0xF00DU);
  const std::size_t iterations = fuzzIters(2000);
  std::size_t parsed_ok = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    std::string frame = seeds[rng.below(seeds.size())];
    const std::size_t mutations = 1 + rng.below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(frame.size());
      switch (rng.below(4)) {
        case 0:  // flip to a random byte (printable-biased)
          frame[pos] = static_cast<char>(32 + rng.below(96));
          break;
        case 1:  // delete
          frame.erase(pos, 1);
          break;
        case 2:  // duplicate
          frame.insert(pos, 1, frame[pos]);
          break;
        default:  // splice structural noise
          frame.insert(pos, "{[\",:");
          break;
      }
      if (frame.empty()) frame.push_back('x');
    }
    try {
      (void)parseRequest(frame, 1 << 16);
      ++parsed_ok;
    } catch (const ProtocolError&) {
      // expected for most mutants
    }
  }
  // Sanity: the corpus is not trivially all-invalid or all-valid.
  EXPECT_LT(parsed_ok, iterations);
}

}  // namespace
}  // namespace doda::server
