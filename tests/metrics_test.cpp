// Unit tests for metrics: summaries, CDFs, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "metrics/cdf.hpp"
#include "metrics/summary.hpp"
#include "metrics/table.hpp"

namespace p2panon::metrics {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(SummaryTest, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RatioTest, RateAndMerge) {
  Ratio r;
  for (int i = 0; i < 10; ++i) r.record(i < 3);
  EXPECT_DOUBLE_EQ(r.rate(), 0.3);
  EXPECT_DOUBLE_EQ(r.percent(), 30.0);
  Ratio other;
  other.record(true);
  r.merge(other);
  EXPECT_EQ(r.trials(), 11u);
  EXPECT_EQ(r.successes(), 4u);
  EXPECT_DOUBLE_EQ(Ratio().rate(), 0.0);
}

TEST(EmpiricalCdfTest, StepFunction) {
  EmpiricalCdf cdf;
  for (double x : {4.0, 2.0, 3.0, 1.0}) cdf.add(x);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(EmpiricalCdfTest, KsOfSelfIsSmall) {
  Rng rng(2);
  EmpiricalCdf cdf;
  for (int i = 0; i < 10000; ++i) cdf.add(rng.next_double());
  const double ks = cdf.ks_distance([](double x) {
    return std::clamp(x, 0.0, 1.0);
  });
  EXPECT_LT(ks, 0.02);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"proto", "rate"});
  table.add_row({"CurMix", "2.64%"});
  table.add_row({"SimEra(k=2,r=2)", "4.98%"});
  const std::string out = table.render();
  EXPECT_NE(out.find("proto"), std::string::npos);
  EXPECT_NE(out.find("SimEra(k=2,r=2)"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "many", "cells"}),
               std::invalid_argument);
}

TEST(SeriesTest, RendersHeaderAndRows) {
  Series series("k", {"r=2", "r=3"});
  series.add(2, {0.5, 0.6});
  series.add(4, {0.4, 0.7});
  const std::string out = series.render(2);
  EXPECT_NE(out.find("# k\tr=2\tr=3"), std::string::npos);
  EXPECT_NE(out.find("2.00\t0.50\t0.60"), std::string::npos);
  EXPECT_THROW(series.add(6, {0.1}), std::invalid_argument);
}

TEST(PairCellTest, PaperFormat) {
  EXPECT_EQ(pair_cell(700, 1153), "[700, 1153]");
  EXPECT_EQ(pair_cell(8.4, 1.0, 1), "[8.4, 1.0]");
}

}  // namespace
}  // namespace p2panon::metrics
