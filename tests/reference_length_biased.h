// A naive reference for the initial-fill duration law, for the sampler tests.
//
// Distribution::LengthBiased flattens min(x, cap) dF(x) into atoms and
// truncated log-normals from closed-form partial moments. None of that is
// here: the reference draws a large pool of plain Sample() values and
// resamples them with weight min(d, cap), which needs nothing but Sample()
// and is length-biased by construction. The law of one resample is the
// weighted empirical distribution of the pool, so the tests read its bin
// probabilities as exact sums instead of resampling
// (tests/distributions_test.cc).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/random.h"

namespace omega {

class ReferenceLengthBiased {
 public:
  ReferenceLengthBiased(const Distribution& dist, double cap, Rng& rng,
                        size_t pool_size) {
    pool_.reserve(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      pool_.push_back(dist.Sample(rng));
    }
    std::sort(pool_.begin(), pool_.end());
    cumulative_.reserve(pool_size);
    double total = 0.0;
    for (double d : pool_) {
      total += std::min(d, cap);
      cumulative_.push_back(total);
    }
  }

  // E[min(d, cap)] over the pool: the normalizer of the law.
  double MeanWeight() const { return cumulative_.back() / pool_.size(); }

  // Probability that one weighted resample of the pool lands in [lo, hi).
  double Probability(double lo, double hi) const {
    return (WeightBelow(hi) - WeightBelow(lo)) / cumulative_.back();
  }

  // The value below which a fraction `q` of the resampling weight lies.
  double Quantile(double q) const {
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(),
                                     q * cumulative_.back());
    return pool_[std::min<size_t>(it - cumulative_.begin(), pool_.size() - 1)];
  }

 private:
  // Resampling weight of the pool values strictly below x.
  double WeightBelow(double x) const {
    const size_t n = std::lower_bound(pool_.begin(), pool_.end(), x) -
                     pool_.begin();
    return n == 0 ? 0.0 : cumulative_[n - 1];
  }

  std::vector<double> pool_;        // sorted plain draws
  std::vector<double> cumulative_;  // running sum of min(d, cap)
};

}  // namespace omega
