// Unit tests of the harness arithmetic every reported number passes
// through: percentiles, open-loop schedule and lag, and the result JSON.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "harness/stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, EmptyIsZero) { EXPECT_EQ(Percentile({}, 50), 0); }

TEST(PercentileTest, SingleValueAtEveryRank) {
  for (double q : {0.0, 1.0, 50.0, 99.0, 100.0}) EXPECT_EQ(Percentile({7.5}, q), 7.5);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // Matches Python's statistics.quantiles(method="inclusive") and numpy's
  // default: [1, 2, 3, 4] has quartiles 1.75 / 2.5 / 3.25.
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 75), 3.25);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4);
}

TEST(PercentileTest, TailOfAThousandSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Rank 0.99 * 999 = 989.01 -> between 990 and 991.
  EXPECT_NEAR(Percentile(v, 99), 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(Median(v), 500.5);
}

TEST(PercentileTest, OutOfRangeQuantileIsClamped) {
  EXPECT_EQ(Percentile({1, 2, 3}, -5), 1);
  EXPECT_EQ(Percentile({1, 2, 3}, 250), 3);
}

TEST(ClassGeomeanTest, OneClassIsItsPercentile) {
  EXPECT_DOUBLE_EQ(ClassGeomean({{"get", {1, 2, 3}}}, 50), 2);
}

TEST(ClassGeomeanTest, GeometricMeanOfClassMedians) {
  // Medians 0.5 and 20: geometric mean sqrt(10) regardless of how many
  // samples each class has.
  const std::map<std::string, std::vector<double>> by_class = {
      {"get", {0.4, 0.5, 0.6}}, {"query", {10, 20, 30, 20, 20}}, {"empty", {}}};
  EXPECT_NEAR(ClassGeomean(by_class, 50), std::sqrt(10.0), 1e-12);
}

TEST(ClassGeomeanTest, StableWhereThePooledMedianJumps) {
  // 49 fast and 51 slow samples pool to a slow median; 51 and 49 to a fast
  // one. The class geomean does not move.
  std::map<std::string, std::vector<double>> a = {{"fast", std::vector<double>(49, 1.0)},
                                                  {"slow", std::vector<double>(51, 100.0)}};
  std::map<std::string, std::vector<double>> b = {{"fast", std::vector<double>(51, 1.0)},
                                                  {"slow", std::vector<double>(49, 100.0)}};
  EXPECT_DOUBLE_EQ(ClassGeomean(a, 50), ClassGeomean(b, 50));
  EXPECT_DOUBLE_EQ(ClassGeomean({}, 50), 0);
}

TEST(ScheduleTest, EvenlyPacedDueTimes) {
  EXPECT_EQ(DueMicros(0, 70), 0);
  EXPECT_EQ(DueMicros(1, 100), 10000);
  EXPECT_EQ(DueMicros(7, 70), 100000);
  // Rounded, not truncated: 1/3 s = 333333.3 us.
  EXPECT_EQ(DueMicros(1, 3), 333333);
  EXPECT_EQ(DueMicros(2, 3), 666667);
}

TEST(ScheduleTest, LagCountsOnlyLateSends) {
  EXPECT_EQ(LagMicros(1000, 900), 0);
  EXPECT_EQ(LagMicros(1000, 1000), 0);
  EXPECT_EQ(LagMicros(1000, 1250), 250);
}

TEST(ScheduleTest, KeptPaceAllowsSlackOnly) {
  EXPECT_TRUE(KeptPace(1000000, 1000000));
  EXPECT_TRUE(KeptPace(1000000, 1110000));
  EXPECT_FALSE(KeptPace(1000000, 1200001));
  // A small fixed allowance covers the last request's own service time.
  EXPECT_TRUE(KeptPace(0, 20000));
  EXPECT_FALSE(KeptPace(0, 20001));
}

TEST(JsonTest, NumbersKeepEveryDigit) {
  for (double x : {0.1, 1.2034, 123456.789, 1e-7, 2.0 / 3.0, 916.0}) {
    const std::string text = FormatNumber(x);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), x) << text;
  }
  EXPECT_EQ(FormatNumber(916), "916");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonTest, ResultLineShape) {
  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {0.8127, "s"};
  metrics["op_p50_ms"] = {1.25, "ms"};
  EXPECT_EQ(ResultJson(true, 1000, 0, metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
            "{\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
  EXPECT_EQ(ResultJson(false, 3, 1, {}),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}");
}

TEST(JsonTest, NamesAreEscaped) {
  std::map<std::string, Metric> metrics;
  metrics["a\"b\\c\n"] = {1, "u"};
  EXPECT_EQ(ResultJson(true, 1, 0, metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"a\\\"b\\\\c \": {\"value\": 1, \"unit\": \"u\"}}}");
}

}  // namespace
}  // namespace perfbench
