// Windowed time-series sampling over the metrics registry: window
// boundaries, rate vs delta semantics, empty windows, ring eviction,
// histogram per-window percentiles, and the deterministic CSV/JSONL shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace p2panon::obs {
namespace {

TEST(TimeseriesTest, PercentileLabels) {
  EXPECT_EQ(percentile_label(0.5), "p50");
  EXPECT_EQ(percentile_label(0.9), "p90");
  EXPECT_EQ(percentile_label(0.99), "p99");
  EXPECT_EQ(percentile_label(0.999), "p99.9");
  EXPECT_EQ(percentile_label(1.0), "p100");
}

TEST(TimeseriesTest, CounterWindowsSeparateRateFromDelta) {
  Registry reg;
  Counter* sent = reg.counter("segments_total", {{"event", "sent"}});
  TimeseriesRecorder rec(reg);

  sent->inc(10);
  rec.sample(1 * kSecond);  // first window always starts at sim time 0
  sent->inc(5);
  rec.sample(3 * kSecond);  // 2 s window: delta 5, rate 2.5/s

  const auto* series = rec.find("segments_total{event=sent}");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind, TimeseriesRecorder::Kind::kCounter);
  ASSERT_EQ(series->windows.size(), 2u);

  const TimeseriesWindow& first = series->windows[0];
  EXPECT_EQ(first.start_us, 0);
  EXPECT_EQ(first.end_us, 1 * kSecond);
  EXPECT_DOUBLE_EQ(first.value, 10.0);
  EXPECT_DOUBLE_EQ(first.delta, 10.0);
  EXPECT_DOUBLE_EQ(first.rate_per_s, 10.0);

  const TimeseriesWindow& second = series->windows[1];
  EXPECT_EQ(second.start_us, 1 * kSecond);
  EXPECT_EQ(second.end_us, 3 * kSecond);
  EXPECT_DOUBLE_EQ(second.value, 15.0);  // cumulative, unlike delta
  EXPECT_DOUBLE_EQ(second.delta, 5.0);
  EXPECT_DOUBLE_EQ(second.rate_per_s, 2.5);
}

TEST(TimeseriesTest, EmptyWindowsReadZeroDeltaAndRate) {
  Registry reg;
  Counter* drops = reg.counter("net_drops_total", {{"cause", "link_loss"}});
  drops->inc(7);
  TimeseriesRecorder rec(reg);
  rec.sample(1 * kSecond);
  rec.sample(2 * kSecond);  // nothing happened in (1 s, 2 s]
  rec.sample(2 * kSecond);  // zero-length window: rate must not divide by 0

  const auto* series = rec.find("net_drops_total{cause=link_loss}");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->windows.size(), 3u);
  EXPECT_DOUBLE_EQ(series->windows[1].value, 7.0);
  EXPECT_DOUBLE_EQ(series->windows[1].delta, 0.0);
  EXPECT_DOUBLE_EQ(series->windows[1].rate_per_s, 0.0);
  EXPECT_EQ(series->windows[2].start_us, series->windows[2].end_us);
  EXPECT_DOUBLE_EQ(series->windows[2].rate_per_s, 0.0);
}

TEST(TimeseriesTest, GaugeDeltaMayGoNegative) {
  Registry reg;
  Gauge* depth = reg.gauge("queue_depth");
  TimeseriesRecorder rec(reg);
  depth->set(8);
  rec.sample(1 * kSecond);
  depth->set(3);
  rec.sample(2 * kSecond);

  const auto* series = rec.find("queue_depth");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind, TimeseriesRecorder::Kind::kGauge);
  ASSERT_EQ(series->windows.size(), 2u);
  EXPECT_DOUBLE_EQ(series->windows[1].value, 3.0);  // level, not cumulative
  EXPECT_DOUBLE_EQ(series->windows[1].delta, -5.0);
  EXPECT_DOUBLE_EQ(series->windows[1].rate_per_s, -5.0);
}

TEST(TimeseriesTest, RingEvictsOldestWindowsAndCountsThem) {
  Registry reg;
  reg.counter("ticks")->inc();
  TimeseriesConfig config;
  config.window_capacity = 4;
  TimeseriesRecorder rec(reg, config);
  for (int i = 1; i <= 6; ++i) rec.sample(i * kSecond);

  const auto* series = rec.find("ticks");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->windows.size(), 4u);
  EXPECT_EQ(series->evicted, 2u);
  // The two oldest windows are gone; the ring now starts at sample 3.
  EXPECT_EQ(series->windows.front().start_us, 2 * kSecond);
  EXPECT_EQ(series->windows.back().end_us, 6 * kSecond);
  EXPECT_EQ(rec.sample_count(), 6u);
  EXPECT_EQ(rec.last_sample_us(), 6 * kSecond);
}

TEST(TimeseriesTest, SeriesAppearingMidRunStartsFromZero) {
  Registry reg;
  reg.counter("early")->inc(2);
  TimeseriesRecorder rec(reg);
  rec.sample(1 * kSecond);
  EXPECT_EQ(rec.series_count(), 1u);

  reg.counter("late")->inc(9);
  rec.sample(2 * kSecond);
  EXPECT_EQ(rec.series_count(), 2u);

  const auto* late = rec.find("late");
  ASSERT_NE(late, nullptr);
  ASSERT_EQ(late->windows.size(), 1u);
  // Its first window spans the last interval only, with prior value 0.
  EXPECT_EQ(late->windows[0].start_us, 1 * kSecond);
  EXPECT_DOUBLE_EQ(late->windows[0].delta, 9.0);
}

TEST(TimeseriesTest, HistogramPercentilesComeFromWindowDeltasOnly) {
  Registry reg;
  HdrHistogram* h = reg.histogram("rtt_us");
  TimeseriesRecorder rec(reg);

  // Window 1: small values (exact one-value-per-bucket region).
  for (std::uint64_t v = 1; v <= 10; ++v) h->record(v);
  rec.sample(1 * kSecond);
  // Window 2: a different, larger population. A cumulative percentile
  // would be dragged down by window 1; a windowed one must not be.
  for (int i = 0; i < 10; ++i) h->record(40);
  rec.sample(2 * kSecond);

  const auto* series = rec.find("rtt_us");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind, TimeseriesRecorder::Kind::kHistogram);
  ASSERT_EQ(series->windows.size(), 2u);

  const TimeseriesWindow& w1 = series->windows[0];
  EXPECT_DOUBLE_EQ(w1.value, 10.0);
  EXPECT_DOUBLE_EQ(w1.delta, 10.0);
  ASSERT_EQ(w1.percentiles.size(), 3u);  // default {0.5, 0.9, 0.99}
  EXPECT_EQ(w1.percentiles[0], 5u);      // p50 of 1..10
  EXPECT_EQ(w1.percentiles[1], 9u);      // p90

  const TimeseriesWindow& w2 = series->windows[1];
  EXPECT_DOUBLE_EQ(w2.value, 20.0);  // cumulative recordings
  EXPECT_DOUBLE_EQ(w2.delta, 10.0);  // in-window recordings
  // Every window-2 value is 40, so every windowed quantile is 40.
  for (const std::uint64_t p : w2.percentiles) EXPECT_EQ(p, 40u);
}

TEST(TimeseriesTest, EmptyHistogramWindowHasZeroPercentiles) {
  Registry reg;
  HdrHistogram* h = reg.histogram("rtt_us");
  h->record(100);
  TimeseriesRecorder rec(reg);
  rec.sample(1 * kSecond);
  rec.sample(2 * kSecond);  // no recordings in this window

  const auto* series = rec.find("rtt_us");
  ASSERT_NE(series, nullptr);
  const TimeseriesWindow& w = series->windows[1];
  EXPECT_DOUBLE_EQ(w.delta, 0.0);
  for (const std::uint64_t p : w.percentiles) EXPECT_EQ(p, 0u);
}

TEST(TimeseriesTest, CsvIsDeterministicAndWellFormed) {
  Registry reg;
  reg.counter("b_counter")->inc(3);
  reg.gauge("a_gauge")->set(4);
  reg.histogram("c_hist")->record(12);
  TimeseriesRecorder rec(reg);
  rec.sample(1 * kSecond);

  const std::string csv = rec.to_csv();
  EXPECT_EQ(csv, rec.to_csv());  // byte-stable across renders
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, "series,kind,start_us,end_us,value,delta,rate_per_s,"
                    "p50,p90,p99");
  std::vector<std::string> rows;
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 3u);
  // Series are sorted by key; non-histogram percentile cells are blank.
  EXPECT_EQ(rows[0],
            "\"a_gauge\",gauge,0,1000000,4.000000,4.000000,4.000000,,,");
  EXPECT_EQ(rows[1],
            "\"b_counter\",counter,0,1000000,3.000000,3.000000,3.000000,,,");
  EXPECT_EQ(rows[2].rfind("\"c_hist\",histogram,", 0), 0u) << rows[2];
}

}  // namespace
}  // namespace p2panon::obs
