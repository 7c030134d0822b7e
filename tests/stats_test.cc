
#include <string>

#include <gtest/gtest.h>

#include "stats/accumulator.h"
#include "stats/confidence.h"
#include "stats/series.h"
#include "stats/table.h"
#include "stats/time_weighted.h"
#include "util/rng.h"

namespace emsim::stats {
namespace {

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Mean(), 0.0);
  EXPECT_EQ(a.Variance(), 0.0);
  EXPECT_EQ(a.Min(), 0.0);
  EXPECT_EQ(a.Max(), 0.0);
}

TEST(AccumulatorTest, KnownMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    a.Add(x);
  }
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.Mean(), 5.0);
  EXPECT_NEAR(a.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_EQ(a.Min(), 2.0);
  EXPECT_EQ(a.Max(), 9.0);
}

TEST(AccumulatorTest, SingleSampleHasZeroVariance) {
  Accumulator a;
  a.Add(3.14);
  EXPECT_EQ(a.Variance(), 0.0);
  EXPECT_EQ(a.Mean(), 3.14);
}

TEST(AccumulatorTest, MergeMatchesSequential) {
  Rng rng(1);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformDouble() * 10 - 5;
    whole.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.Mean(), whole.Mean(), 1e-9);
  EXPECT_NEAR(left.Variance(), whole.Variance(), 1e-9);
  EXPECT_EQ(left.Min(), whole.Min());
  EXPECT_EQ(left.Max(), whole.Max());
}

TEST(AccumulatorTest, MergeWithEmpty) {
  Accumulator a;
  a.Add(1);
  a.Add(2);
  Accumulator empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 1.5);
}

TEST(AccumulatorTest, ResetClears) {
  Accumulator a;
  a.Add(5);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(ConfidenceTest, TTableSpotChecks) {
  EXPECT_NEAR(StudentT95(1), 12.706, 1e-3);
  EXPECT_NEAR(StudentT95(4), 2.776, 1e-3);
  EXPECT_NEAR(StudentT95(30), 2.042, 1e-3);
  EXPECT_NEAR(StudentT95(1000), 1.96, 1e-3);
}

TEST(ConfidenceTest, IntervalContainsMean) {
  Accumulator a;
  for (int i = 0; i < 10; ++i) {
    a.Add(10.0 + (i % 3));
  }
  auto ci = MeanConfidence95(a);
  EXPECT_TRUE(ci.Contains(a.Mean()));
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.lower(), ci.upper());
}

TEST(ConfidenceTest, CoverageOnNormalishData) {
  // ~95% of 95% CIs over repeated samples should contain the true mean.
  Rng rng(2);
  int covered = 0;
  const int experiments = 300;
  for (int e = 0; e < experiments; ++e) {
    Accumulator a;
    for (int i = 0; i < 20; ++i) {
      // Sum of uniforms ~ normal-ish, mean 5.
      double x = 0;
      for (int j = 0; j < 10; ++j) {
        x += rng.UniformDouble();
      }
      a.Add(x);
    }
    covered += MeanConfidence95(a).Contains(5.0);
  }
  EXPECT_GT(covered, experiments * 0.88);
}

TEST(TimeWeightedTest, PiecewiseAverage) {
  TimeWeighted tw;
  tw.Update(0, 2.0);   // 2 on [0,10)
  tw.Update(10, 4.0);  // 4 on [10,20)
  tw.Flush(20);
  EXPECT_DOUBLE_EQ(tw.Average(), 3.0);
  EXPECT_DOUBLE_EQ(tw.TotalTime(), 20.0);
}

TEST(TimeWeightedTest, AverageWhilePositive) {
  TimeWeighted tw;
  tw.Update(0, 0.0);
  tw.Update(10, 3.0);
  tw.Update(20, 0.0);
  tw.Flush(40);
  EXPECT_DOUBLE_EQ(tw.Average(), 30.0 / 40.0);
  EXPECT_DOUBLE_EQ(tw.AverageWhilePositive(), 3.0);
  EXPECT_DOUBLE_EQ(tw.PositiveTime(), 10.0);
}

TEST(TimeWeightedTest, ZeroDurationUpdatesAreWeightless) {
  TimeWeighted tw;
  tw.Update(0, 1.0);
  tw.Update(5, 100.0);  // Immediately overwritten at the same instant.
  tw.Update(5, 1.0);
  tw.Flush(10);
  EXPECT_DOUBLE_EQ(tw.Average(), 1.0);
}

TEST(TimeWeightedTest, EmptyIsZero) {
  TimeWeighted tw;
  EXPECT_EQ(tw.Average(), 0.0);
  EXPECT_EQ(tw.AverageWhilePositive(), 0.0);
}

TEST(SeriesTest, MinMaxLast) {
  Series s("curve");
  s.Add(1, 10);
  s.Add(2, 5);
  s.Add(3, 7);
  EXPECT_EQ(s.MinY(), 5.0);
  EXPECT_EQ(s.MaxY(), 10.0);
  EXPECT_EQ(s.LastY(), 7.0);
}

TEST(SeriesTest, NonIncreasingWithSlack) {
  Series s("t");
  s.Add(1, 10);
  s.Add(2, 8);
  s.Add(3, 8.5);
  EXPECT_FALSE(s.IsNonIncreasing(0.0));
  EXPECT_TRUE(s.IsNonIncreasing(1.0));
}

TEST(FigureTest, CsvHasHeaderAndRows) {
  Figure fig("Fig", "N", "seconds");
  auto& a = fig.AddSeries("a");
  a.Add(1, 100);
  a.Add(2, 50);
  auto& b = fig.AddSeries("b");
  b.Add(1, 80);
  std::string csv = fig.ToCsv();
  EXPECT_NE(csv.find("N,a,a_err,b,b_err"), std::string::npos);
  EXPECT_NE(csv.find("\n1,100,0,80,0"), std::string::npos);
  // Series b has no point at x=2: empty cells.
  EXPECT_NE(csv.find("\n2,50,0,,"), std::string::npos);
}

TEST(FigureTest, TableRenders) {
  Figure fig("Fig 3.2(a)", "N", "Total Time (s)");
  fig.AddSeries("Demand Run Only").Add(1, 292.5);
  std::string table = fig.ToTable();
  EXPECT_NE(table.find("Fig 3.2(a)"), std::string::npos);
  EXPECT_NE(table.find("292.5"), std::string::npos);
}

TEST(TableTest, AlignsAndRenders) {
  Table t({"config", "paper", "measured"});
  t.AddRow({"k=25", "292.5", Table::Cell(292.55)});
  t.AddRow({"k=50", "633", Table::Cell(625.1, 1)});
  std::string s = t.ToString();
  EXPECT_NE(s.find("292.55"), std::string::npos);
  EXPECT_NE(s.find("625.1"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("config,paper,measured"), std::string::npos);
}

TEST(TableTest, ShortRowsPad) {
  Table t({"a", "b"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

}  // namespace
}  // namespace emsim::stats
