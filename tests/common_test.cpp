// Unit tests for the common utilities: bytes, RNG, strings, flags.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"

#include "byte_helpers.hpp"

namespace p2panon {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(BytesTest, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(BytesTest, StringRoundTrip) {
  EXPECT_EQ(string_of(bytes_of("hello")), "hello");
  EXPECT_TRUE(bytes_of("").empty());
}

TEST(BytesTest, ConcatAndAppend) {
  Bytes a = {1, 2};
  const Bytes b = {3};
  append(a, b);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  EXPECT_EQ(concat({Bytes{1}, Bytes{}, Bytes{2, 3}}), (Bytes{1, 2, 3}));
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  EXPECT_TRUE(constant_time_equal(a, Bytes{1, 2, 3}));
  EXPECT_FALSE(constant_time_equal(a, Bytes{1, 2, 4}));
  EXPECT_FALSE(constant_time_equal(a, Bytes{1, 2}));
}

TEST(BytesTest, BigEndianRoundTrip) {
  Bytes out;
  put_u16be(out, 0x1234);
  put_u32be(out, 0xdeadbeef);
  put_u64be(out, 0x0123456789abcdefULL);
  EXPECT_EQ(get_u16be(out, 0), 0x1234);
  EXPECT_EQ(get_u32be(out, 2), 0xdeadbeefu);
  EXPECT_EQ(get_u64be(out, 6), 0x0123456789abcdefULL);
  EXPECT_THROW(get_u32be(out, out.size() - 2), std::out_of_range);

  // The fixed-offset stores write the same bytes as put_*, and the loads
  // read them back, at an unaligned offset.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0x0123456789abcdefULL}}) {
    SCOPED_TRACE(v);
    const auto v16 = static_cast<std::uint16_t>(v);
    const auto v32 = static_cast<std::uint32_t>(v);
    std::uint8_t buf[1 + 2 + 4 + 8] = {};
    store_u16be(buf + 1, v16);
    store_u32be(buf + 3, v32);
    store_u64be(buf + 7, v);
    Bytes expected = {0};
    put_u16be(expected, v16);
    put_u32be(expected, v32);
    put_u64be(expected, v);
    EXPECT_EQ(Bytes(buf, buf + sizeof(buf)), expected);
    EXPECT_EQ(load_u16be(buf + 1), v16);
    EXPECT_EQ(load_u32be(buf + 3), v32);
    EXPECT_EQ(load_u64be(buf + 7), v);
  }
  std::uint8_t mixed[8];
  store_u64be(mixed, 0x0123456789abcdefULL);
  EXPECT_EQ(Bytes(mixed, mixed + 8),
            (Bytes{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}));
}

TEST(BytesTest, LittleEndianRoundTrip) {
  std::uint8_t buf[8];
  store_u64le(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_u64le(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(load_u32le(buf), 0x89abcdefu);
}

// --- rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Different seeds diverge (overwhelmingly likely).
  bool diverged = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    const double o = rng.next_double_open();
    ASSERT_GT(o, 0.0);
    ASSERT_LE(o, 1.0);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ParetoMedianConverges) {
  Rng rng(10);
  std::vector<double> samples(100001);
  for (auto& s : samples) s = rng.pareto(1.0, 1800.0);
  std::nth_element(samples.begin(), samples.begin() + 50000, samples.end());
  // Median of Pareto(shape 1, scale 1800) is 3600.
  EXPECT_NEAR(samples[50000], 3600.0, 120.0);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(11);
  for (std::size_t count : {1u, 5u, 50u, 100u}) {
    const auto picks = rng.sample_without_replacement(100, count);
    ASSERT_EQ(picks.size(), count);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), count);
    for (auto p : picks) EXPECT_LT(p, 100u);
  }
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
  }
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.fork();
  // Child continues deterministically but differs from parent stream.
  Rng parent2(13);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child.next_u64(), child2.next_u64());
  }
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, Formatters) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_bytes(1536.0), "1.50 KB");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

// --- logging --------------------------------------------------------------------

TEST(LoggingTest, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_THROW(parse_log_level("loud"), std::invalid_argument);
}

TEST(LoggingTest, LevelGateSuppressesBelowThreshold) {
  const LogLevel saved = global_log_level();
  set_global_log_level(LogLevel::Error);
  int evaluations = 0;
  // The macro must not evaluate the streamed expression when suppressed.
  LOG_DEBUG << "never " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
  set_global_log_level(saved);
}

// --- time ----------------------------------------------------------------------

TEST(TimeTest, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1500000);
  EXPECT_EQ(from_millis(2.5), 2500);
  EXPECT_DOUBLE_EQ(to_seconds(kHour), 3600.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

// --- flags ----------------------------------------------------------------------

TEST(FlagSetTest, ParsesAllKinds) {
  FlagSet flags;
  auto& n = flags.add_int("n", 5, "count");
  auto& x = flags.add_double("x", 1.5, "factor");
  auto& v = flags.add_bool("verbose", false, "verbosity");
  auto& s = flags.add_string("name", "default", "label");

  const char* argv[] = {"prog", "--n=7", "--x", "2.5", "--verbose",
                        "--name=hello"};
  flags.parse(6, const_cast<char**>(argv));
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_TRUE(v);
  EXPECT_EQ(s, "hello");
}

TEST(FlagSetTest, RejectsUnknownAndMalformed) {
  // A bad command line is a usage error: message and usage on stderr,
  // exit status 2.
  FlagSet flags;
  flags.add_int("n", 5, "count");
  const char* unknown[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(flags.parse(2, const_cast<char**>(unknown)),
              ::testing::ExitedWithCode(2), "unknown flag --bogus");
  const char* badval[] = {"prog", "--n=xyz"};
  EXPECT_EXIT(flags.parse(2, const_cast<char**>(badval)),
              ::testing::ExitedWithCode(2), "bad value for --n: xyz");
  const char* positional[] = {"prog", "stray"};
  EXPECT_EXIT(flags.parse(2, const_cast<char**>(positional)),
              ::testing::ExitedWithCode(2), "unexpected argument: stray");
}

}  // namespace
}  // namespace p2panon
