// Unit tests for the support layer: RNG, math, statistics, tables, CSV,
// JSON and the bit scan of support/simd.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "local/metrics.hpp"
#include "support/csv.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace avglocal::support;
namespace support = avglocal::support;
namespace local = avglocal::local;

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c) << "different seeds should diverge";
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversSmallRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RandomPermutationIsAPermutation) {
  Xoshiro256 rng(5);
  const auto perm = random_permutation(257, rng);
  ASSERT_EQ(perm.size(), 257u);
  std::set<std::uint64_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 257u);
  EXPECT_EQ(*values.begin(), 1u);
  EXPECT_EQ(*values.rbegin(), 257u);
}

TEST(Rng, DerivedSeedsDiffer) {
  const auto s1 = derive_seed(1, 0);
  const auto s2 = derive_seed(1, 1);
  const auto s3 = derive_seed(2, 0);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s1, s3);
  EXPECT_EQ(s1, derive_seed(1, 0));
}

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(4), 2);
  EXPECT_EQ(ilog2(1023), 9);
  EXPECT_EQ(ilog2(1024), 10);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
}

TEST(Math, BitWidth) {
  EXPECT_EQ(bit_width_u64(0), 0);
  EXPECT_EQ(bit_width_u64(1), 1);
  EXPECT_EQ(bit_width_u64(7), 3);
  EXPECT_EQ(bit_width_u64(8), 4);
}

TEST(Math, LogStarAtTowerValues) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(log_star(65537.0), 5);
}

TEST(Math, Tower) {
  EXPECT_EQ(tower(0), 1u);
  EXPECT_EQ(tower(1), 2u);
  EXPECT_EQ(tower(2), 4u);
  EXPECT_EQ(tower(3), 16u);
  EXPECT_EQ(tower(4), 65536u);
}

TEST(Math, LogStarInverseOfTower) {
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(log_star(static_cast<double>(tower(k))), k);
  }
}

TEST(Stats, RunningMatchesNaive) {
  RunningStats rs;
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 10.0, -7.5};
  double sum = 0;
  for (double x : xs) {
    rs.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(rs.mean(), mean, 1e-12);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_EQ(rs.min(), -7.5);
  EXPECT_EQ(rs.max(), 10.0);
}

TEST(Stats, MergeEqualsSequential) {
  RunningStats left, right, whole;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10;
    (i < 20 ? left : right).add(x);
    whole.add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.count(), whole.count());
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted = {0, 10, 20, 30, 40};
  EXPECT_NEAR(percentile_sorted(sorted, 0.0), 0, 1e-12);
  EXPECT_NEAR(percentile_sorted(sorted, 1.0), 40, 1e-12);
  EXPECT_NEAR(percentile_sorted(sorted, 0.5), 20, 1e-12);
  EXPECT_NEAR(percentile_sorted(sorted, 0.25), 10, 1e-12);
  EXPECT_NEAR(percentile_sorted(sorted, 0.125), 5, 1e-12);
}

TEST(Stats, SummarizeEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, FitLinearRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
}

TEST(Stats, FitLinearRejectsDegenerate) {
  EXPECT_THROW(fit_linear({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_linear({2.0, 2.0}, {1.0, 3.0}), std::logic_error);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "long header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({Table::cell(std::int64_t{-7}), Table::cell(3.14159, 2), "x"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a "), std::string::npos);
  EXPECT_NE(md.find("long header"), std::string::npos);
  EXPECT_NE(md.find("3.14"), std::string::npos);
  EXPECT_NE(md.find("-7"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 3u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NE(t.to_text().find("only"), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"n", "avg"});
  writer.write_row({"8", "1,5"});
  EXPECT_EQ(out.str(), "n,avg\n8,\"1,5\"\n");
}

TEST(JsonWriter, NestedDocument) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("core");
  json.key("ok").value(true);
  json.key("count").value(std::uint64_t{3});
  json.key("ratio").value(2.5);
  json.key("items").begin_array().value(std::int64_t{-1}).value("x").end_array();
  json.key("nested").begin_object().key("empty").begin_array().end_array().end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"core\",\"ok\":true,\"count\":3,\"ratio\":2.5,"
            "\"items\":[-1,\"x\"],\"nested\":{\"empty\":[]}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.begin_array().value("a\"b\\c\n").end_array();
  EXPECT_EQ(json.str(), "[\"a\\\"b\\\\c\\n\"]");
}

TEST(JsonWriter, DoublesRoundTrip) {
  JsonWriter json;
  json.begin_array().value(0.1).value(1e300).end_array();
  EXPECT_EQ(json.str(), "[0.1,1e+300]");
}

TEST(JsonWriter, NonFiniteDoublesSerialiseAsNull) {
  // JSON has no nan/inf tokens, so emitting them verbatim would produce an
  // unparseable document. Real artefacts reach this path: RunningStats
  // min()/max() on an empty accumulator return NaN.
  JsonWriter json;
  json.begin_array()
      .value(1.5)
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(json.str(), "[1.5,null,null,null]");

  // Round-trip through json_reader: the document parses and the non-finite
  // slots come back as JSON null.
  const auto doc = support::parse_json(json.str());
  ASSERT_EQ(doc.size(), 4u);
  EXPECT_DOUBLE_EQ(doc[0].as_double(), 1.5);
  EXPECT_TRUE(doc[1].is_null());
  EXPECT_TRUE(doc[2].is_null());
  EXPECT_TRUE(doc[3].is_null());

  JsonWriter from_stats;
  from_stats.begin_object().key("min").value(support::RunningStats().min()).end_object();
  EXPECT_EQ(from_stats.str(), "{\"min\":null}");
  EXPECT_TRUE(support::parse_json(from_stats.str()).at("min").is_null());
}

TEST(JsonReader, ObjectMembersIterateInDocumentOrder) {
  const auto doc = support::parse_json("{\"b\":1,\"a\":2}");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(members[0].second.as_u64(), 1u);
  EXPECT_EQ(members[1].first, "a");
  EXPECT_THROW(support::parse_json("[1]").members(), std::runtime_error);
}

TEST(Stats, EmptyExtremaAreNaN) {
  // The empty-state contract: an accumulator with no observations has no
  // extrema, and NaN propagates loudly where a stale 0.0 would lie.
  const support::RunningStats empty;
  EXPECT_TRUE(std::isnan(empty.min()));
  EXPECT_TRUE(std::isnan(empty.max()));
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.sum(), 0.0);
  EXPECT_EQ(empty.count(), 0u);

  support::RunningStats one;
  one.add(-3.5);
  EXPECT_DOUBLE_EQ(one.min(), -3.5);
  EXPECT_DOUBLE_EQ(one.max(), -3.5);
}

TEST(Stats, MergeHandlesEmptySides) {
  support::RunningStats filled;
  filled.add(2.0);
  filled.add(-4.0);

  // Empty into filled: a no-op (extrema must not absorb the empty side's
  // indeterminate state).
  support::RunningStats a = filled;
  a.merge(support::RunningStats());
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), -4.0);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
  EXPECT_DOUBLE_EQ(a.mean(), filled.mean());

  // Filled into empty: copies everything, including extrema.
  support::RunningStats b;
  b.merge(filled);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.min(), -4.0);
  EXPECT_DOUBLE_EQ(b.max(), 2.0);

  // Empty into empty: still empty, extrema still NaN.
  support::RunningStats c;
  c.merge(support::RunningStats());
  EXPECT_EQ(c.count(), 0u);
  EXPECT_TRUE(std::isnan(c.min()));
  EXPECT_TRUE(std::isnan(c.max()));
}

TEST(JsonReader, ParsesScalarsArraysAndObjects) {
  const auto doc = support::parse_json(
      "  {\"name\": \"a\\\"b\\n\", \"flag\": true, \"none\": null,\n"
      "   \"big\": 18446744073709551615, \"neg\": -42, \"pi\": 3.25,\n"
      "   \"items\": [1, 2, 3], \"nested\": {\"k\": [false]}}  ");
  EXPECT_EQ(doc.at("name").as_string(), "a\"b\n");
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  // 2^64 - 1 round-trips exactly: integers never pass through a double.
  EXPECT_EQ(doc.at("big").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at("neg").as_i64(), -42);
  EXPECT_DOUBLE_EQ(doc.at("pi").as_double(), 3.25);
  ASSERT_EQ(doc.at("items").size(), 3u);
  EXPECT_EQ(doc.at("items")[1].as_u64(), 2u);
  EXPECT_FALSE(doc.at("nested").at("k")[0].as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
}

TEST(JsonReader, RoundTripsJsonWriterOutput) {
  support::JsonWriter writer;
  writer.begin_object();
  writer.key("values").begin_array();
  writer.value(std::uint64_t{0}).value(std::uint64_t{1234567890123456789ull});
  writer.end_array();
  writer.key("text").value("line\nbreak \"quoted\"");
  writer.key("x").value(0.1);
  writer.end_object();

  const auto doc = support::parse_json(writer.str());
  EXPECT_EQ(doc.at("values")[1].as_u64(), 1234567890123456789ull);
  EXPECT_EQ(doc.at("text").as_string(), "line\nbreak \"quoted\"");
  EXPECT_DOUBLE_EQ(doc.at("x").as_double(), 0.1);
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(support::parse_json(""), std::runtime_error);
  EXPECT_THROW(support::parse_json("{"), std::runtime_error);
  EXPECT_THROW(support::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(support::parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(support::parse_json("true false"), std::runtime_error);
  EXPECT_THROW(support::parse_json("12..5"), std::runtime_error);
  EXPECT_THROW(support::parse_json("\"unterminated"), std::runtime_error);
  // Type mismatches are runtime errors too.
  const auto doc = support::parse_json("{\"a\": \"text\"}");
  EXPECT_THROW(doc.at("a").as_u64(), std::runtime_error);
  EXPECT_THROW(doc.at("a")[0], std::runtime_error);
  // A negative number is not a u64.
  EXPECT_THROW(support::parse_json("-1").as_u64(), std::runtime_error);
}

TEST(JsonReader, CapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // 64 levels is the cap: it parses, and the innermost array is empty.
  const auto doc = support::parse_json(nested(64));
  const JsonValue* inner = &doc;
  for (int level = 1; level < 64; ++level) inner = &(*inner)[0];
  EXPECT_EQ(inner->size(), 0u);
  // One level more throws with a message naming the cap, and so do
  // 100'000 levels, deep enough to overflow an uncapped recursive parser.
  for (const std::size_t depth : {std::size_t{65}, std::size_t{100'000}}) {
    try {
      support::parse_json(nested(depth));
      ADD_FAILURE() << depth << " levels parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "json: nesting deeper than 64 levels") << depth;
    }
  }
  // Objects count the same as arrays.
  std::string objects;
  for (int level = 0; level < 65; ++level) objects += "{\"k\":";
  objects += "0" + std::string(65, '}');
  EXPECT_THROW(support::parse_json(objects), std::runtime_error);
}

TEST(RadiusHistogram, CountsMergesAndQuantiles) {
  local::RadiusHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);

  hist.add(0, 4);
  hist.add(2, 4);
  hist.add(10);
  EXPECT_EQ(hist.samples(), 9u);
  EXPECT_EQ(hist.max_radius(), 10u);
  EXPECT_DOUBLE_EQ(hist.mean(), (0.0 * 4 + 2.0 * 4 + 10.0) / 9.0);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.quantile(0.44), 0u);  // cumulative 4/9 covers it
  EXPECT_EQ(hist.quantile(0.5), 2u);
  EXPECT_EQ(hist.quantile(0.88), 2u);  // target 7.92 <= cumulative 8
  EXPECT_EQ(hist.quantile(0.95), 10u);
  EXPECT_EQ(hist.quantile(1.0), 10u);

  local::RadiusHistogram other;
  other.add(1, 2);
  hist.merge(other);
  EXPECT_EQ(hist.samples(), 11u);
  EXPECT_EQ(hist.counts()[1], 2u);

  // Construction from raw counts trims trailing zeros, so equality is
  // representation-independent.
  local::RadiusHistogram padded(std::vector<std::uint64_t>{4, 2, 4, 0, 0});
  local::RadiusHistogram tight(std::vector<std::uint64_t>{4, 2, 4});
  EXPECT_EQ(padded, tight);
}

std::vector<std::uint64_t> random_words(std::size_t count, support::Xoshiro256& rng) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng.next();
  return words;
}

std::vector<std::size_t> collect_bits(const std::vector<std::uint64_t>& words, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::size_t> got;
  simd::for_each_set_bit(words.data(), begin, end, [&](std::size_t bit) { got.push_back(bit); });
  return got;
}

TEST(Simd, ForEachSetBitMatchesPerBitScan) {
  support::Xoshiro256 rng(15);
  const auto words = random_words(5, rng);
  const std::size_t total = words.size() * 64;
  const std::size_t ranges[][2] = {{0, 0},     {0, 1},   {0, 64},   {0, 128},  {1, 64},
                                   {63, 64},   {63, 65}, {64, 128}, {10, 250}, {100, 101},
                                   {128, 192}, {0, total}};
  for (const auto& [begin, end] : ranges) {
    std::vector<std::size_t> want;
    for (std::size_t i = begin; i < end; ++i) {
      if ((words[i >> 6] >> (i & 63)) & 1u) want.push_back(i);
    }
    EXPECT_EQ(collect_bits(words, begin, end), want) << "[" << begin << ", " << end << ")";
  }
}

TEST(Simd, ForEachSetBitOnSolidAndEmptyMasks) {
  const std::vector<std::uint64_t> solid(3, ~std::uint64_t{0});
  EXPECT_EQ(collect_bits(solid, 0, 192).size(), 192u);
  EXPECT_EQ(collect_bits(solid, 5, 67).size(), 62u);
  const std::vector<std::uint64_t> empty(3, 0);
  EXPECT_TRUE(collect_bits(empty, 0, 192).empty());
  EXPECT_TRUE(collect_bits(empty, 63, 129).empty());
}

}  // namespace
