// Statistics utilities for experiment metrics.
//
// The paper reports medians of per-day values with median-absolute-deviation
// (MAD) error bars, overall means for wait times, percentiles (90th, 80th),
// and empirical CDFs. These helpers implement all of those plus streaming
// moments for workload characterization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace omega {

// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  // Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exact percentile of a sample set (linear interpolation between order
// statistics). `q` in [0, 1]. Returns NaN for an empty sample — "no data" is
// not a zero, and json::AppendNumber renders NaN as null in reports.
double Percentile(std::vector<double> values, double q);

// Median (50th percentile). NaN for an empty sample.
double Median(std::vector<double> values);

// Median absolute deviation from the median: a robust dispersion estimator,
// used for the error bars in Figures 6-9. NaN for an empty sample.
double MedianAbsoluteDeviation(std::vector<double> values);

// An empirical cumulative distribution function over collected samples.
// Samples are stored as (value, count) runs, so weighted adds (`AddN`) cost
// O(1) memory regardless of the weight.
class Cdf {
 public:
  void Add(double x) { AddN(x, 1); }
  // Adds `n` copies of x; n <= 0 is a no-op.
  void AddN(double x, int64_t n);
  // Absorbs all samples of `other`. Used to fold per-trial CDFs from a
  // parallel sweep into one distribution.
  void Merge(const Cdf& other);

  size_t count() const { return static_cast<size_t>(total_); }
  bool empty() const { return total_ == 0; }

  // Fraction of samples <= x.
  double FractionAtOrBelow(double x) const;
  // Value at quantile q in [0, 1]. NaN when the CDF holds no samples.
  double Quantile(double q) const;

  double MinValue() const;
  double MaxValue() const;
  double MeanValue() const;

  // Evaluates the CDF at `points` x-values; returns fractions.
  std::vector<double> Evaluate(const std::vector<double>& points) const;

 private:
  // Sorts runs by value, coalesces duplicates, and rebuilds the inclusive
  // prefix-sum over counts used for O(log runs) rank/fraction queries.
  void EnsureSorted() const;
  // Value of the k-th order statistic (0-based, k in [0, total_)).
  double ValueAtRank(int64_t k) const;

  mutable std::vector<std::pair<double, int64_t>> runs_;  // (value, count)
  mutable std::vector<int64_t> cumulative_;  // inclusive prefix sums of counts
  mutable bool sorted_ = false;
  int64_t total_ = 0;
};

}  // namespace omega

