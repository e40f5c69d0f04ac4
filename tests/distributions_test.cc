#include "src/common/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/workload/cluster_config.h"
#include "tests/reference_length_biased.h"

namespace omega {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The initial fill's cap on standing lifetimes (WorkloadGenerator).
constexpr double kCapSecs = 30.0 * 86400.0;

std::shared_ptr<const Distribution> BatchDurations() {
  return ClusterA().batch.task_duration_secs;
}

std::shared_ptr<const Distribution> ServiceDurations() {
  return ClusterA().service.task_duration_secs;
}

// Empirical mean over many samples should match the analytic Mean() for each
// distribution family (property-style check, parameterized over instances).
struct MeanCase {
  const char* name;
  std::shared_ptr<const Distribution> dist;
  double tolerance_frac;  // relative tolerance on the mean
};

class DistributionMeanTest : public ::testing::TestWithParam<MeanCase> {};

TEST_P(DistributionMeanTest, EmpiricalMeanMatchesAnalytic) {
  const MeanCase& c = GetParam();
  Rng rng(12345);
  const int n = 400000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += c.dist->Sample(rng);
  }
  const double empirical = sum / n;
  const double analytic = c.dist->Mean();
  EXPECT_NEAR(empirical, analytic,
              std::abs(analytic) * c.tolerance_frac + 1e-9)
      << "for " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionMeanTest,
    ::testing::Values(
        MeanCase{"constant", std::make_shared<ConstantDist>(3.5), 0.0},
        MeanCase{"exponential", std::make_shared<ExponentialDist>(7.0), 0.02},
        MeanCase{"lognormal_narrow", std::make_shared<LogNormalDist>(5.0, 0.5),
                 0.02},
        MeanCase{"lognormal_wide", std::make_shared<LogNormalDist>(100.0, 1.5),
                 0.10},
        MeanCase{"pareto", std::make_shared<BoundedParetoDist>(1.0, 100.0, 1.5),
                 0.03},
        MeanCase{"pareto_heavy",
                 std::make_shared<BoundedParetoDist>(1.0, 1000.0, 0.9), 0.10},
        // The real duration laws: a clamped log-normal (batch) and a clamped
        // mixture of log-normals (service), where the clamp moves the mean.
        MeanCase{"clamped_lognormal_batch", BatchDurations(), 0.02},
        MeanCase{"clamped_mixture_service", ServiceDurations(), 0.02}),
    [](const ::testing::TestParamInfo<MeanCase>& info) {
      return info.param.name;
    });

TEST(ExponentialDistTest, AllSamplesPositive) {
  ExponentialDist d(2.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(d.Sample(rng), 0.0);
  }
}

TEST(BoundedParetoDistTest, SamplesWithinBounds) {
  BoundedParetoDist d(2.0, 50.0, 1.1);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, 2.0 - 1e-9);
    EXPECT_LE(x, 50.0 + 1e-9);
  }
}

TEST(BoundedParetoDistTest, HeavyTailHasLargeSamples) {
  BoundedParetoDist d(1.0, 10000.0, 0.8);
  Rng rng(3);
  double max_seen = 0.0;
  for (int i = 0; i < 100000; ++i) {
    max_seen = std::max(max_seen, d.Sample(rng));
  }
  EXPECT_GT(max_seen, 1000.0);
}

TEST(LogNormalDistTest, MedianBelowMean) {
  // Log-normals are right-skewed: the median exp(mu) is below the mean.
  LogNormalDist d(10.0, 1.0);
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 100001; ++i) {
    samples.push_back(d.Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_LT(samples[samples.size() / 2], 10.0);
}

TEST(ClampedDistTest, RespectsBounds) {
  auto inner = std::make_shared<LogNormalDist>(10.0, 2.0);
  ClampedDist d(inner, 1.0, 20.0);
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 20.0);
  }
}

TEST(MixtureDistTest, WeightsRespected) {
  MixtureDist d({{0.25, std::make_shared<ConstantDist>(1.0)},
                 {0.75, std::make_shared<ConstantDist>(2.0)}});
  Rng rng(7);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (d.Sample(rng) == 1.0) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, 0.01);
  EXPECT_NEAR(d.Mean(), 1.75, 1e-9);
}

TEST(MixtureDistTest, UnnormalizedWeightsNormalize) {
  MixtureDist d({{2.0, std::make_shared<ConstantDist>(4.0)},
                 {6.0, std::make_shared<ConstantDist>(8.0)}});
  EXPECT_NEAR(d.Mean(), 0.25 * 4.0 + 0.75 * 8.0, 1e-9);
}

TEST(ClampedDistTest, MeanIsExact) {
  // lo P(X < lo) + E[X; lo <= X < hi] + hi P(X >= hi), not clamp(E[X]):
  // 296.2 s for batch (clamp(E[X]) is 300 s) and 10.11 days for service
  // (clamp(E[X]) is 12.4 days).
  EXPECT_NEAR(BatchDurations()->Mean(), 296.2, 0.05);
  EXPECT_NEAR(ServiceDurations()->Mean() / 86400.0, 10.11, 0.005);
  // A law entirely below lo is the atom at lo.
  ClampedDist all_low(std::make_shared<ConstantDist>(0.5), 1.0, 3.0);
  EXPECT_DOUBLE_EQ(all_low.Mean(), 1.0);
}

TEST(NormalTest, KnownQuantiles) {
  EXPECT_DOUBLE_EQ(NormalQuantile(0.5), 0.0);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-15);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963984540054, 1e-15);
  EXPECT_NEAR(NormalQuantile(0.8413447460685429), 1.0, 1e-15);
  EXPECT_NEAR(NormalQuantile(1e-10), -6.361340902404056, 1e-13);
  EXPECT_EQ(NormalQuantile(0.0), -kInf);
  EXPECT_EQ(NormalQuantile(1.0), kInf);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-16);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525393145707, 1e-16);
  // Deep lower tail, relative: Phi(-10) = 7.619853024160527e-24.
  EXPECT_NEAR(NormalCdf(-10.0) / 7.619853024160527e-24, 1.0, 1e-13);
}

TEST(NormalTest, QuantileRoundTripsAndIsMonotone) {
  // Log-spaced in the tail probability min(p, 1 - p) from 1e-12 to 0.5, on
  // both sides; compared in that tail so neither end loses precision.
  double prev = -kInf;
  std::vector<double> ps;
  for (double t = 1e-12; t < 0.5; t *= 1.25) {
    ps.push_back(t);
  }
  for (size_t i = ps.size(); i-- > 0;) {
    ps.push_back(1.0 - ps[i]);
  }
  for (double p : ps) {
    const double z = NormalQuantile(p);
    EXPECT_GT(z, prev) << "p " << p;
    prev = z;
    if (p < 0.5) {
      EXPECT_NEAR(NormalCdf(z) / p, 1.0, 1e-12) << "p " << p;
    } else {
      EXPECT_NEAR(NormalCdf(-z) / (1.0 - p), 1.0, 1e-12) << "p " << p;
    }
  }
}

TEST(LengthBiasedTest, AtomsAreWeightedByCappedLength) {
  // Atoms at 10 and 100 with equal mass, cap 50: weights 10 and 50.
  MixtureDist two({{0.5, std::make_shared<ConstantDist>(10.0)},
                   {0.5, std::make_shared<ConstantDist>(100.0)}});
  const PiecewiseLaw law = two.LengthBiased(50.0);
  EXPECT_DOUBLE_EQ(law.TotalWeight(), 0.5 * 10.0 + 0.5 * 50.0);
  Rng rng(8);
  int long_ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = law.Sample(rng);
    ASSERT_TRUE(x == 10.0 || x == 100.0) << x;
    long_ones += x == 100.0;
  }
  EXPECT_NEAR(static_cast<double>(long_ones) / n, 25.0 / 30.0, 0.005);
}

TEST(LengthBiasedTest, RestrictedLogNormalMatchesItsPartialMoments) {
  // Draws from x^k dF on [a, b) have mean PartialMoment(k + 1) /
  // PartialMoment(k), in the body and in both deep tails (the upper one
  // inverts the upper-tail CDF). For k = 1 that ratio comes from x dF's own
  // law, lognormal(mu + sigma^2, sigma), whose mean is E[X] exp(sigma^2).
  const LogNormalDist d(1.0, 1.0);
  const LogNormalDist biased(std::exp(1.0), 1.0);
  const struct {
    int k;
    double a, b;
  } cases[] = {{0, 0.5, 2.0}, {0, 50.0, kInf}, {1, 1e-4, 1e-3},
               {0, 0.0, 0.01}, {1, 10.0, 20.0}, {1, 40.0, kInf}};
  for (const auto& c : cases) {
    PiecewiseLaw law;
    d.AppendRestricted(c.k, c.a, c.b, 1.0, &law);
    EXPECT_NEAR(law.TotalWeight() / d.PartialMoment(c.k, c.a, c.b), 1.0,
                1e-12);
    Rng rng(9);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const double x = law.Sample(rng);
      ASSERT_GE(x, c.a);
      ASSERT_LE(x, c.b);
      sum += x;
    }
    const LogNormalDist& law_k = c.k == 0 ? d : biased;
    const double mean =
        law_k.PartialMoment(1, c.a, c.b) / law_k.PartialMoment(0, c.a, c.b);
    EXPECT_NEAR(sum / n / mean, 1.0, 0.01) << c.k << " " << c.a << " " << c.b;
  }
}

// The initial-fill duration law of one job type on one cluster.
struct LawCase {
  const char* name;
  ClusterConfig (*cluster)();
  bool batch;
};

void PrintTo(const LawCase& c, std::ostream* os) { *os << c.name; }

class LengthBiasedLawTest : public ::testing::TestWithParam<LawCase> {};

// Binned chi-square of 10,000 exact draws against the reference law (weighted
// resampling of 10^6 plain draws), on 16 bins of equal reference weight.
TEST_P(LengthBiasedLawTest, MatchesWeightedResamplingReference) {
  const LawCase& c = GetParam();
  const ClusterConfig config = c.cluster();
  const Distribution& dist =
      *(c.batch ? config.batch : config.service).task_duration_secs;
  Rng ref_rng(101);
  const ReferenceLengthBiased ref(dist, kCapSecs, ref_rng, 1000000);
  const PiecewiseLaw law = dist.LengthBiased(kCapSecs);
  EXPECT_NEAR(law.TotalWeight() / ref.MeanWeight(), 1.0, 0.01)
      << "E[min(d, cap)]";

  // An atom spanning several quantiles merges their bins.
  std::vector<double> edges = {-kInf};
  for (int i = 1; i < 16; ++i) {
    const double q = ref.Quantile(i / 16.0);
    if (q > edges.back()) {
      edges.push_back(q);
    }
  }
  edges.push_back(kInf);
  const size_t bins = edges.size() - 1;
  ASSERT_GE(bins, 8u);

  Rng rng(202);
  const int n = 10000;
  std::vector<int> counts(bins, 0);
  for (int i = 0; i < n; ++i) {
    const double x = law.Sample(rng);
    ++counts[std::upper_bound(edges.begin(), edges.end(), x) - edges.begin() -
             1];
  }
  double chi2 = 0.0;
  for (size_t b = 0; b < bins; ++b) {
    const double expected = n * ref.Probability(edges[b], edges[b + 1]);
    chi2 += (counts[b] - expected) * (counts[b] - expected) / expected;
  }
  // 0.999 quantile of chi-square with bins - 1 degrees of freedom
  // (Wilson-Hilferty).
  const double dof = static_cast<double>(bins - 1);
  const double h = 2.0 / (9.0 * dof);
  const double critical =
      dof * std::pow(1.0 - h + NormalQuantile(0.999) * std::sqrt(h), 3.0);
  EXPECT_LT(chi2, critical) << bins << " bins";
}

INSTANTIATE_TEST_SUITE_P(
    Clusters, LengthBiasedLawTest,
    ::testing::Values(LawCase{"A_batch", ClusterA, true},
                      LawCase{"A_service", ClusterA, false},
                      LawCase{"B_batch", ClusterB, true},
                      LawCase{"B_service", ClusterB, false},
                      LawCase{"C_batch", ClusterC, true},
                      LawCase{"C_service", ClusterC, false},
                      LawCase{"D_batch", ClusterD, true},
                      LawCase{"D_service", ClusterD, false},
                      LawCase{"mega_batch", ClusterMega, true},
                      LawCase{"mega_service", ClusterMega, false},
                      LawCase{"test_batch", [] { return TestCluster(); }, true},
                      LawCase{"test_service", [] { return TestCluster(); },
                              false}),
    [](const ::testing::TestParamInfo<LawCase>& info) {
      return info.param.name;
    });

TEST(DistributionDeathTest, MalformedParametersAbort) {
  EXPECT_DEATH(LogNormalDist(0.0, 1.0), "log-normal mean");
  EXPECT_DEATH(LogNormalDist(-3.0, 1.0), "log-normal mean");
  EXPECT_DEATH(LogNormalDist(1.0, -0.5), "log-normal sigma");
  EXPECT_DEATH(ExponentialDist(0.0), "exponential mean");
  EXPECT_DEATH(ClampedDist(std::make_shared<ConstantDist>(1.0), 3.0, 2.0),
               "clamp");
  EXPECT_DEATH(BoundedParetoDist(0.0, 10.0, 1.0), "bounded Pareto lo");
  EXPECT_DEATH(MixtureDist({{0.0, std::make_shared<ConstantDist>(1.0)}}),
               "mixture weight");
}

TEST(DistributionDeathTest, LengthBiasedWithoutClosedFormAborts) {
  const ExponentialDist exponential(5.0);
  EXPECT_DEATH(exponential.LengthBiased(kCapSecs), "no closed-form");
  const BoundedParetoDist pareto(1.0, 100.0, 1.5);
  EXPECT_DEATH(pareto.LengthBiased(kCapSecs), "no closed-form");
  // Also inside a clamp or mixture: no silent fallback anywhere.
  const ClampedDist clamped(std::make_shared<ExponentialDist>(5.0), 1.0, 9.0);
  EXPECT_DEATH(clamped.LengthBiased(kCapSecs), "no closed-form");
  EXPECT_DEATH(clamped.Mean(), "no closed-form");
}

}  // namespace
}  // namespace omega
