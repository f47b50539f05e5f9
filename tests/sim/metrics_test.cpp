// Metrics registry tests: Welford statistics against hand-computed values,
// interning semantics, by-name updates, and RunReport serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string_view>

#include "sim/metrics.hpp"
#include "sim/report.hpp"

namespace icc::sim {
namespace {

TEST(SampleSeries, EmptySeriesSemantics) {
  SampleSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  // min/max are NaN, not a misleading 0.0.
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST(SampleSeries, WelfordMatchesKnownValues) {
  // Classic textbook data: mean 5, sample variance 32/7.
  SampleSeries s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(SampleSeries, SingleSampleHasZeroVariance) {
  SampleSeries s;
  s.add(3.5);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
}

TEST(SampleSeries, WelfordIsStableAroundLargeOffsets) {
  // Naive sum-of-squares cancels catastrophically here; Welford does not.
  SampleSeries s;
  const double offset = 1e9;
  for (const double v : {4.0, 7.0, 13.0, 16.0}) s.add(offset + v);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);  // var{4,7,13,16} = 30
}

TEST(MetricsRegistry, InterningIsIdempotent) {
  MetricsRegistry reg;
  const MetricId a = reg.counter_id("x");
  const MetricId b = reg.counter_id("x");
  EXPECT_EQ(a, b);
  // Kinds have independent id spaces: the same name is a distinct metric.
  const MetricId g = reg.gauge_id("x");
  reg.add(a, 2.0);
  reg.set(g, 7.0);
  EXPECT_DOUBLE_EQ(reg.counter(a), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge(g), 7.0);
}

TEST(MetricsRegistry, HotPathUpdatesThroughIds) {
  MetricsRegistry reg;
  const MetricId c = reg.counter_id("pkts");
  const MetricId s = reg.series_id("lat");
  for (int i = 0; i < 5; ++i) reg.add(c);
  reg.add(c, 10.0);
  reg.sample(s, 1.0);
  reg.sample(s, 3.0);
  EXPECT_DOUBLE_EQ(reg.counter(c), 15.0);
  EXPECT_DOUBLE_EQ(reg.series(s).mean(), 2.0);
}

TEST(MetricsRegistry, LookupByNameHandlesAbsentMetrics) {
  MetricsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.counter_value("never"), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("never"), 0.0);
  EXPECT_TRUE(reg.series_by_name("never").empty());
}

TEST(MetricsRegistry, ScopedPerNodeNames) {
  EXPECT_EQ(MetricsRegistry::scoped("blackhole.data_dropped", 12), "blackhole.data_dropped.n12");
  MetricsRegistry reg;
  reg.add(reg.node_counter_id("blackhole.data_dropped", 3), 1.5);
  EXPECT_DOUBLE_EQ(reg.counter_value("blackhole.data_dropped.n3"), 1.5);
}

TEST(MetricsRegistry, NamedUpdatesShareStorageWithIds) {
  MetricsRegistry reg;
  reg.add_named("a");
  reg.add_named("a", 4.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("a"), 5.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("missing"), 0.0);
  // Interned access sees the same storage.
  const MetricId id = reg.counter_id("a");
  reg.add(id, 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("a"), 6.0);
  reg.add_named("a");
  EXPECT_DOUBLE_EQ(reg.counter(id), 7.0);
  reg.sample(reg.series_id("s"), 2.0);
  reg.sample(reg.series_id("s"), 4.0);
  EXPECT_DOUBLE_EQ(reg.series_by_name("s").mean(), 3.0);
  // A name is its bytes: a view into a longer buffer finds the same counter.
  const std::string_view buffer{"sts.beacons_accepted.tail"};
  reg.add_named("sts.beacons_accepted");
  reg.add_named(buffer.substr(0, 20));
  EXPECT_DOUBLE_EQ(reg.counter_value("sts.beacons_accepted"), 2.0);
  EXPECT_DOUBLE_EQ(reg.counter_value(buffer), 0.0);
}

TEST(RunReport, JsonCarriesSeriesStatistics) {
  RunReport report;
  report.set_meta("experiment", "unit");
  report.set_meta("runs", static_cast<std::uint64_t>(3));
  SampleSeries s;
  for (const double v : {1.0, 2.0, 3.0}) s.add(v);
  report.add_series("throughput", s);
  report.add_counter("sent", 42.0);

  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stddev\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sent\": 42"), std::string::npos);
}

TEST(RunReport, EmptySeriesMinSerializesAsNull) {
  RunReport report;
  report.add_series("empty", SampleSeries{});
  std::ostringstream out;
  report.write_json(out);
  EXPECT_NE(out.str().find("\"min\":null"), std::string::npos);
}

TEST(RunReport, CsvHasOneRowPerMetric) {
  RunReport report;
  report.set_meta("experiment", "unit");
  report.add_counter("sent", 7.0);
  SampleSeries s;
  s.add(1.0);
  report.add_series("lat", s);
  std::ostringstream out;
  report.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,count,value,mean,stddev,min,max\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,sent,"), std::string::npos);
  EXPECT_NE(csv.find("series,lat,1,"), std::string::npos);
}

TEST(RunReport, SnapshotsWholeRegistry) {
  MetricsRegistry reg;
  reg.add(reg.counter_id("c1"), 2.0);
  reg.set(reg.gauge_id("g1"), 3.0);
  reg.sample(reg.series_id("s1"), 4.0);
  RunReport report;
  report.add_metrics(reg, "run0.");
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"run0.c1\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"run0.g1\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"run0.s1\""), std::string::npos);
}

}  // namespace
}  // namespace icc::sim
