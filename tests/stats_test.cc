#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/random.h"

namespace omega {
namespace {

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextRange(-10, 10);
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(5.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(PercentileTest, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Median(v), 5.5);
}

TEST(PercentileTest, EmptyAndSingle) {
  // An empty sample is "no data", not zero (AppendNumber emits null for it).
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_TRUE(std::isnan(MedianAbsoluteDeviation({})));
  EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
}

TEST(PercentileTest, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(MadTest, KnownValue) {
  // median = 3; |x - 3| = {2,1,0,1,2}; MAD = 1.
  EXPECT_DOUBLE_EQ(MedianAbsoluteDeviation({1, 2, 3, 4, 5}), 1.0);
}

TEST(MadTest, ConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(MedianAbsoluteDeviation({4, 4, 4, 4}), 0.0);
}

TEST(MadTest, RobustToOutlier) {
  // One huge outlier barely moves the MAD, unlike the standard deviation.
  const double mad = MedianAbsoluteDeviation({1, 2, 3, 4, 1000});
  EXPECT_LE(mad, 2.0);
}

TEST(CdfTest, FractionAtOrBelow) {
  Cdf cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    cdf.Add(x);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(100.0), 1.0);
}

TEST(CdfTest, QuantileInverse) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_NEAR(cdf.Quantile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.MaxValue(), 100.0);
  EXPECT_DOUBLE_EQ(cdf.MeanValue(), 50.5);
}

TEST(CdfTest, AddNWeights) {
  Cdf cdf;
  cdf.AddN(1.0, 3);
  cdf.AddN(2.0, 1);
  EXPECT_EQ(cdf.count(), 4u);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.75);
}

// Weighted adds must agree exactly with the equivalent sequence of unit adds.
TEST(CdfTest, AddNMatchesRepeatedAdd) {
  Rng rng(42);
  Cdf weighted;
  Cdf unit;
  for (int i = 0; i < 50; ++i) {
    const double x = rng.NextRange(0.0, 100.0);
    const auto n = static_cast<int64_t>(1 + rng.NextBounded(9));
    weighted.AddN(x, n);
    for (int64_t k = 0; k < n; ++k) {
      unit.Add(x);
    }
  }
  ASSERT_EQ(weighted.count(), unit.count());
  EXPECT_DOUBLE_EQ(weighted.MinValue(), unit.MinValue());
  EXPECT_DOUBLE_EQ(weighted.MaxValue(), unit.MaxValue());
  EXPECT_DOUBLE_EQ(weighted.MeanValue(), unit.MeanValue());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(weighted.Quantile(q), unit.Quantile(q)) << "q=" << q;
  }
  for (double x : {-1.0, 0.0, 12.5, 50.0, 99.0, 1000.0}) {
    EXPECT_DOUBLE_EQ(weighted.FractionAtOrBelow(x), unit.FractionAtOrBelow(x))
        << "x=" << x;
  }
}

// Regression: AddN used to materialize n copies of the sample, so a large
// weighted add was O(n) memory. With (value, count) runs this is O(1) and
// finishes instantly even for billions of samples.
TEST(CdfTest, AddNHugeWeightIsCheap) {
  Cdf cdf;
  cdf.AddN(1.0, 3'000'000'000LL);
  cdf.AddN(2.0, 1'000'000'000LL);
  EXPECT_EQ(cdf.count(), 4'000'000'000ULL);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.5), 0.75);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.MeanValue(), 1.25);
}

TEST(CdfTest, AddNZeroOrNegativeIsNoop) {
  Cdf cdf;
  cdf.AddN(1.0, 0);
  cdf.AddN(2.0, -5);
  EXPECT_TRUE(cdf.empty());
  cdf.Add(3.0);
  EXPECT_EQ(cdf.count(), 1u);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 3.0);
}

TEST(CdfTest, DuplicateValuesAcrossAddsCoalesce) {
  Cdf cdf;
  cdf.Add(5.0);
  cdf.AddN(5.0, 2);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 1.0);  // forces a sort
  cdf.AddN(5.0, 3);                                   // add after a query
  cdf.Add(7.0);
  EXPECT_EQ(cdf.count(), 7u);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 6.0 / 7.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 7.0);
}

TEST(CdfTest, MergeMatchesCombinedAdds) {
  Cdf a;
  Cdf b;
  Cdf combined;
  for (int i = 1; i <= 10; ++i) {
    (i % 2 == 0 ? a : b).Add(i);
    combined.Add(i);
  }
  a.Merge(b);
  ASSERT_EQ(a.count(), combined.count());
  for (double q : {0.0, 0.3, 0.5, 0.8, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), combined.Quantile(q));
  }
  Cdf empty;
  a.Merge(empty);  // merging empty changes nothing
  EXPECT_EQ(a.count(), combined.count());
  empty.Merge(a);  // merging into empty copies everything
  EXPECT_EQ(empty.count(), combined.count());
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), combined.Quantile(0.5));
}

TEST(CdfTest, EmptyBehaviour) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.FractionAtOrBelow(1.0), 0.0);
  EXPECT_EQ(cdf.MeanValue(), 0.0);
  EXPECT_TRUE(std::isnan(cdf.Quantile(0.5)));
}

TEST(CdfTest, AddAfterQueryResorts) {
  Cdf cdf;
  cdf.Add(5.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 1.0);
  cdf.Add(1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.5);
}

TEST(CdfTest, EvaluateMultiplePoints) {
  Cdf cdf;
  for (int i = 1; i <= 10; ++i) {
    cdf.Add(i);
  }
  const auto fracs = cdf.Evaluate({0.0, 5.0, 10.0});
  ASSERT_EQ(fracs.size(), 3u);
  EXPECT_DOUBLE_EQ(fracs[0], 0.0);
  EXPECT_DOUBLE_EQ(fracs[1], 0.5);
  EXPECT_DOUBLE_EQ(fracs[2], 1.0);
}

// Property: Percentile agrees with a brute-force rank computation at the
// order statistics themselves, across random data sets.
class PercentilePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PercentilePropertyTest, MatchesOrderStatistics) {
  Rng rng(GetParam());
  std::vector<double> data;
  const int n = 1 + static_cast<int>(rng.NextBounded(500));
  for (int i = 0; i < n; ++i) {
    data.push_back(rng.NextRange(-1000, 1000));
  }
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (size_t k = 0; k < sorted.size(); ++k) {
    const double q = sorted.size() == 1
                         ? 0.5
                         : static_cast<double>(k) / (sorted.size() - 1);
    EXPECT_NEAR(Percentile(data, q), sorted[k], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentilePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace omega
