#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace omega {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    // NaN, not 0.0: an empty sample is not a sample of zeros. JSON emitters
    // render non-finite values as null (json::AppendNumber), so the report
    // distinguishes "no data" from a true zero.
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double MedianAbsoluteDeviation(std::vector<double> values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double med = Median(values);
  for (double& v : values) {
    v = std::abs(v - med);
  }
  return Median(std::move(values));
}

void Cdf::AddN(double x, int64_t n) {
  if (n <= 0) {
    return;
  }
  runs_.emplace_back(x, n);
  total_ += n;
  sorted_ = false;
}

void Cdf::EnsureSorted() const {
  if (sorted_) {
    return;
  }
  std::sort(runs_.begin(), runs_.end());
  // Coalesce runs with equal values so rank queries see one entry per value.
  size_t out = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (out > 0 && runs_[out - 1].first == runs_[i].first) {
      runs_[out - 1].second += runs_[i].second;
    } else {
      runs_[out++] = runs_[i];
    }
  }
  runs_.resize(out);
  cumulative_.resize(runs_.size());
  int64_t running = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    running += runs_[i].second;
    cumulative_[i] = running;
  }
  sorted_ = true;
}

double Cdf::ValueAtRank(int64_t k) const {
  // First run whose inclusive cumulative count exceeds k holds the k-th
  // order statistic.
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), k);
  assert(it != cumulative_.end());
  return runs_[static_cast<size_t>(it - cumulative_.begin())].first;
}

double Cdf::FractionAtOrBelow(double x) const {
  if (total_ == 0) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), x,
      [](double v, const std::pair<double, int64_t>& run) {
        return v < run.first;
      });
  if (it == runs_.begin()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(it - runs_.begin()) - 1;
  return static_cast<double>(cumulative_[idx]) / static_cast<double>(total_);
}

double Cdf::Quantile(double q) const {
  if (total_ == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  EnsureSorted();
  // Same linear interpolation between order statistics as Percentile().
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(total_ - 1);
  const auto lo = static_cast<int64_t>(pos);
  const int64_t hi = std::min(lo + 1, total_ - 1);
  const double frac = pos - static_cast<double>(lo);
  const double v_lo = ValueAtRank(lo);
  const double v_hi = ValueAtRank(hi);
  return v_lo + frac * (v_hi - v_lo);
}

double Cdf::MinValue() const {
  if (total_ == 0) {
    return 0.0;
  }
  EnsureSorted();
  return runs_.front().first;
}

double Cdf::MaxValue() const {
  if (total_ == 0) {
    return 0.0;
  }
  EnsureSorted();
  return runs_.back().first;
}

double Cdf::MeanValue() const {
  if (total_ == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& [value, n] : runs_) {
    sum += value * static_cast<double>(n);
  }
  return sum / static_cast<double>(total_);
}

}  // namespace omega
