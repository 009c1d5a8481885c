// Unit tests for src/common: statistics, tables, CSV, units, RNG, checks.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "common/number.h"
#include "common/parse.h"
#include "common/require.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace bbrmodel {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeMatchesPooledComputation) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, MedianAndEdges) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), PreconditionError);
  EXPECT_THROW(percentile({1.0}, -1.0), PreconditionError);
  EXPECT_THROW(percentile({1.0}, 101.0), PreconditionError);
}

TEST(Jain, EqualAllocationIsPerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(Jain, OneHotAllocationIsMinimal) {
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(Jain, KnownTwoFlowValue) {
  // (1+3)^2 / (2*(1+9)) = 16/20 = 0.8
  EXPECT_NEAR(jain_index({1.0, 3.0}), 0.8, 1e-12);
}

TEST(Jain, ClampsNegativeRates) {
  EXPECT_NEAR(jain_index({-1.0, 2.0}), jain_index({0.0, 2.0}), 1e-12);
}

TEST(Jain, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(VectorStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(stddev_of({2.0}), 0.0);
  EXPECT_NEAR(stddev_of({1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_numeric_row("beta", {2.5}, 1);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"t", "x"});
  w.write_row(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(w.rows_written(), 1u);
  EXPECT_EQ(os.str(), "t,x\n1,2\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RejectsWrongWidth) {
  std::ostringstream os;
  CsvWriter w(os, {"a"});
  EXPECT_THROW(w.write_row(std::vector<double>{1.0, 2.0}), PreconditionError);
}

TEST(Csv, RowBuilderMatchesTheCellFormatters) {
  std::ostringstream os;
  CsvWriter w(os, {"n", "text", "seed", "missing"});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  w.number(0.1 + 0.2).field("a,b").integer(18446744073709551615ULL).number(nan)
      .end_row();
  // A short row is refused without leaking its cells into the next one.
  w.number(1.0);
  EXPECT_THROW(w.end_row(), PreconditionError);
  w.number(2.0).field("plain").integer(7).number(-0.5).end_row();
  EXPECT_EQ(w.rows_written(), 2u);
  EXPECT_EQ(os.str(), "n,text,seed,missing\n" + csv_number(0.1 + 0.2) + "," +
                          csv_escape("a,b") + ",18446744073709551615," +
                          csv_number(nan) + "\n2,plain,7,-0.5\n");
}

TEST(Units, RateConversionsRoundTrip) {
  const double pps = mbps_to_pps(100.0);
  EXPECT_NEAR(pps, 8333.3333, 1e-3);
  EXPECT_NEAR(pps_to_mbps(pps), 100.0, 1e-9);
}

TEST(Units, VolumeConversions) {
  EXPECT_DOUBLE_EQ(bytes_to_packets(3000.0), 2.0);
  EXPECT_DOUBLE_EQ(packets_to_bytes(2.0), 3000.0);
}

TEST(Units, BdpComputation) {
  // 100 Mbps × 30 ms ≈ 250 packets.
  EXPECT_NEAR(bdp_packets(mbps_to_pps(100.0), 0.030), 250.0, 0.5);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const int k = r.uniform_int(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-0.5));
  EXPECT_TRUE(r.chance(1.5));
}

TEST(CsvNumber, DeterministicFormatting) {
  EXPECT_EQ(csv_number(1.0), "1");
  EXPECT_EQ(csv_number(0.25), "0.25");
  EXPECT_EQ(csv_number(-3.5e-7), "-3.5e-07");
  EXPECT_EQ(csv_number(std::nan("")), "");
  EXPECT_EQ(csv_number(std::numeric_limits<double>::infinity()), "");
}

TEST(Json, QuoteEscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, NumberMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(2.5), "2.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, WriterProducesWellFormedNesting) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("name").value("sweep");
  j.key("count").value(std::uint64_t{3});
  j.key("ok").value(true);
  j.key("rows").begin_array();
  j.begin_object();
  j.key("x").value(1.5);
  j.end_object();
  j.value(2.0);
  j.end_array();
  j.key("empty").begin_object();
  j.end_object();
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"x\": 1.5\n"
            "    },\n"
            "    2\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(Json, WriterRejectsMisuse) {
  std::ostringstream out;
  JsonWriter j(out);
  EXPECT_THROW(j.key("top-level key"), PreconditionError);
  j.begin_object();
  EXPECT_THROW(j.value(1.0), PreconditionError);   // value without key
  EXPECT_THROW(j.end_array(), PreconditionError);  // wrong scope
  j.key("k");
  EXPECT_THROW(j.end_object(), PreconditionError);  // dangling key
  EXPECT_FALSE(j.complete());
}

TEST(Require, ThrowsTypedExceptions) {
  EXPECT_THROW(BBRM_REQUIRE(false), PreconditionError);
  EXPECT_THROW(BBRM_REQUIRE_MSG(false, "context"), PreconditionError);
  EXPECT_NO_THROW(BBRM_REQUIRE(true));
  try {
    BBRM_REQUIRE_MSG(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(TryParseDouble, FullStringSemantics) {
  EXPECT_EQ(try_parse_double("2.5"), std::optional<double>(2.5));
  EXPECT_EQ(try_parse_double("-0.75"), std::optional<double>(-0.75));
  EXPECT_EQ(try_parse_double("1e-3"), std::optional<double>(1e-3));
  EXPECT_FALSE(try_parse_double("").has_value());
  EXPECT_FALSE(try_parse_double(" 1").has_value())
      << "leading whitespace must not be skipped";
  EXPECT_FALSE(try_parse_double("1.5s").has_value())
      << "trailing bytes must reject";
  EXPECT_FALSE(try_parse_double("abc").has_value());
}

// ---- number codec -------------------------------------------------------

std::string printf_number(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Seeded corpus: random bit patterns (every exponent, subnormals, NaN
/// payloads, infinities), decimal-looking values across magnitudes, and
/// the edge values where "%g" switches notation or rounding carries.
std::vector<double> number_corpus() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_MIN - DBL_TRUE_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, 1.0, -1.0,
      0.1, 1.0 / 3.0, 3.141592653589793, 1e-5, std::nextafter(1e-5, 0.0),
      std::nextafter(1e-5, 1.0), 1e-4, std::nextafter(1e-4, 0.0),
      9.99995e-5, 1e10, 9999999999.5, std::nextafter(1e10, 0.0), 1e16,
      1e17, std::nextafter(1e17, 0.0), 99999999999999999.0, 1e21,
      std::nextafter(1e21, 0.0), 1e22, 123456789012345678.0, 0.5, 2.5,
      std::nan(""), -std::nan(""), inf, -inf};
  std::mt19937_64 rng(20221025);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-310, 310);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
  }
  return values;
}

TEST(NumberCodec, RenderingsMatchPrintfByteForByte) {
  std::size_t finite = 0;
  for (const double v : number_corpus()) {
    const std::string short_printf = printf_number("%.10g", v);
    std::string short_codec;
    append_short_number(short_codec, v);
    ASSERT_EQ(short_codec, short_printf) << "bits " << bits_of(v);
    if (!std::isfinite(v)) continue;
    ++finite;
    ASSERT_EQ(exact_number(v), printf_number("%.17g", v))
        << "bits " << bits_of(v);
    ASSERT_EQ(json_number(v), short_printf) << "bits " << bits_of(v);
    ASSERT_EQ(csv_number(v), short_printf) << "bits " << bits_of(v);
  }
  EXPECT_GT(finite, 190000u);
  // Non-finite values keep their fixed spellings.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(exact_number(std::nan("")), "nan");
  EXPECT_EQ(exact_number(-std::nan("")), "nan");
  EXPECT_EQ(exact_number(inf), "inf");
  EXPECT_EQ(exact_number(-inf), "-inf");
  EXPECT_EQ(json_number(-inf), "null");
  EXPECT_EQ(csv_number(std::nan("")), "");
  std::string u;
  append_u64(u, 0);
  u += ' ';
  append_u64(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(u, "0 18446744073709551615");
}

TEST(NumberCodec, CsvDoubleRowsMatchStreamPrecision10) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> row = {0.0,   -0.0, 1e-5, 1234567890123.0,
                                   1.0 / 3.0, std::nan(""), -inf, DBL_MAX};
  std::ostringstream expected;
  expected.precision(10);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) expected << ',';
    expected << row[i];
  }
  expected << '\n';
  std::ostringstream out;
  CsvWriter csv(out, std::vector<std::string>(row.size(), "c"));
  csv.write_row(row);
  const std::string header = "c,c,c,c,c,c,c,c\n";
  EXPECT_EQ(out.str(), header + expected.str());
}

/// The strtod verdict the spec and metrics codecs used to compute inline.
std::optional<double> strtod_verdict(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') return std::nullopt;
  return v;
}

void expect_same_verdict(const std::string& token) {
  const auto expected = strtod_verdict(token);
  const auto actual = decode_number(token);
  ASSERT_EQ(actual.has_value(), expected.has_value()) << "'" << token << "'";
  if (expected) {
    ASSERT_EQ(bits_of(*actual), bits_of(*expected)) << "'" << token << "'";
  }
}

TEST(NumberCodec, DecodeMatchesStrtodBitForBit) {
  for (const double v : number_corpus()) {
    for (const char* format : {"%.17g", "%.10g", "%.3e", "%.25g", "%a"}) {
      expect_same_verdict(printf_number(format, v));
    }
  }
  // strtod's wider grammar and its rejections, token by token.
  for (const std::string token :
       {"", " 1", "\t-2.5", "+1", "+.5", ".5", "5.", "-", "+", ".", "e5",
        "1e", "1e+", "1.5s", "1 ", "1,5", "abc", "0x1p-1074", "0X1.8P+1",
        "1e400", "-1e400", "1e-400", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "4.9406564584124654e-324",
        "1.7976931348623158e308", "1.7976931348623159e308", "nan", "-nan",
        "NaN", "nan(123)", "nan(0x7)", "inf", "-inf", "INF", "infinity",
        "-Infinity", "infin", "00001.25", "-0", "0e0",
        "123456789012345678901234567890",
        "0.100000000000000005551115123125782702118158340454101562"}) {
    expect_same_verdict(token);
  }
  // Lists split on any run of blanks, as `istream >> token` did.
  for (const std::string text :
       {"", "  ", "1 2\t3\n4", " 1e-5  -inf nan\r", "0.5\v\f2", "1 x 2",
        "1,2", "3 4 "}) {
    std::istringstream in(text);
    std::vector<double> expected;
    bool ok = true;
    std::string token;
    while (in >> token) {
      const auto v = strtod_verdict(token);
      if (!v) ok = false;
      if (v) expected.push_back(*v);
    }
    const auto actual = decode_numbers(text);
    ASSERT_EQ(actual.has_value(), ok) << "'" << text << "'";
    if (!ok) continue;
    ASSERT_EQ(actual->size(), expected.size()) << "'" << text << "'";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(bits_of((*actual)[i]), bits_of(expected[i]));
    }
  }
  // An embedded NUL ends the token, as it did for strtod on c_str().
  expect_same_verdict(std::string("1.5\0junk", 8));
  EXPECT_EQ(decode_number(std::string("1.5\0junk", 8)),
            std::optional<double>(1.5));
}

}  // namespace
}  // namespace bbrmodel
