// Random-variate distributions used by the synthetic workload generator.
//
// The lightweight simulator of the Omega paper synthesizes jobs from empirical
// parameter distributions fitted to production traces (Table 2, "sampled").
// These classes provide the distribution families used for that synthesis:
// exponential inter-arrival times, log-normal durations and resource sizes,
// bounded-Pareto task counts, and piecewise empirical distributions for cases
// where a parametric family does not fit.
//
// The duration families (constant, log-normal, clamped, mixture) also have a
// closed-form length-biased law, which the initial cell fill draws standing
// tasks from (DESIGN.md §7, "Initial-fill sampler").
#pragma once

#include <memory>
#include <vector>

#include "src/common/random.h"

namespace omega {

class PiecewiseLaw;

// Interface for a real-valued random variate source.
class Distribution {
 public:
  virtual ~Distribution() = default;

  // Draws one sample using `rng`.
  virtual double Sample(Rng& rng) const = 0;

  // Analytic mean of the distribution (exact for every family).
  virtual double Mean() const = 0;

  // The length-biased law proportional to min(x, cap) dF(x) of a
  // non-negative variate: the lifetime of a task found running at an instant,
  // lifetimes beyond `cap` weighted as `cap`. Exact: x dF on [0, cap) plus
  // cap dF on [cap, inf), each flattened by AppendRestricted.
  PiecewiseLaw LengthBiased(double cap) const;

  // The two primitives LengthBiased is built from, for k in {0, 1}. Families
  // without a closed form (uniform, exponential, bounded Pareto, empirical)
  // CHECK-fail rather than fall back to an approximation.
  //
  // The partial moment: integral of x^k dF(x) over [a, b).
  virtual double PartialMoment(int k, double a, double b) const;
  // Appends the law proportional to x^k dF(x) restricted to [a, b), scaled to
  // total weight `scale` * PartialMoment(k, a, b), to `law` as pieces.
  virtual void AppendRestricted(int k, double a, double b, double scale,
                                PiecewiseLaw* law) const;
};

// A finite mixture of atoms and truncated log-normals: the form every
// restricted law above takes. Built once; a draw is one uniform to choose the
// piece plus, for a log-normal piece, one CDF inversion.
class PiecewiseLaw {
 public:
  void AddAtom(double weight, double value);
  // exp(mu + sigma Z), Z standard normal conditioned on [z_lo, z_hi); draws
  // are clamped into [a, b] against inversion rounding.
  void AddLogNormal(double weight, double mu, double sigma, double z_lo,
                    double z_hi, double a, double b);

  // Sum of the piece weights; CHECK-fails on an empty or massless law.
  double TotalWeight() const;
  double Sample(Rng& rng) const;

 private:
  struct Piece {
    double cumulative = 0.0;  // weight of this and all earlier pieces
    double value = 0.0;       // atoms only
    // Log-normal pieces: Z = Phi^-1(base + u * span), negated when the
    // interval lies in the upper tail (base and span are then upper-tail
    // probabilities, which keeps deep tails exact).
    bool atom = true;
    bool upper_tail = false;
    double base = 0.0;
    double span = 0.0;
    double mu = 0.0;
    double sigma = 0.0;
    double a = 0.0;
    double b = 0.0;
  };
  void Add(double weight, Piece piece);

  std::vector<Piece> pieces_;
};

// Standard normal CDF, from std::erfc (accurate in both tails: Phi(-z) is the
// upper tail 1 - Phi(z) without cancellation).
double NormalCdf(double z);

// Standard normal quantile Phi^-1(p) for p in [0, 1] (+-inf at the ends):
// Wichura's algorithm AS241 (PPND16), relative accuracy about 1e-16.
double NormalQuantile(double p);

// Constant value (degenerate distribution).
class ConstantDist final : public Distribution {
 public:
  explicit ConstantDist(double value) : value_(value) {}
  double Sample(Rng&) const override { return value_; }
  double Mean() const override { return value_; }
  double PartialMoment(int k, double a, double b) const override;
  void AppendRestricted(int k, double a, double b, double scale,
                        PiecewiseLaw* law) const override;

 private:
  double value_;
};

// Uniform on [lo, hi).
class UniformDist final : public Distribution {
 public:
  UniformDist(double lo, double hi);
  double Sample(Rng& rng) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }

 private:
  double lo_;
  double hi_;
};

// Exponential with the given mean (= 1/rate). Used for inter-arrival times.
class ExponentialDist final : public Distribution {
 public:
  explicit ExponentialDist(double mean);
  double Sample(Rng& rng) const override;
  double Mean() const override { return mean_; }

 private:
  double mean_;
};

// Log-normal parameterized by the *linear-space* mean and sigma of the
// underlying normal; heavy-tailed, fits task durations and resource sizes.
class LogNormalDist final : public Distribution {
 public:
  // `mean` is the distribution mean E[X]; `sigma` is the log-space std dev.
  LogNormalDist(double mean, double sigma);
  double Sample(Rng& rng) const override;
  double Mean() const override;
  // x^k dF is Mean()^k times lognormal(mu + k sigma^2, sigma), so both
  // primitives are a normal mass: a weight, or one truncated log-normal piece.
  double PartialMoment(int k, double a, double b) const override;
  void AppendRestricted(int k, double a, double b, double scale,
                        PiecewiseLaw* law) const override;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  // (log x - mu - k sigma^2) / sigma: where x falls in the normal underlying
  // x^k dF; -inf for x <= 0.
  double Standardize(double x, int k) const;

  double mu_;
  double sigma_;
};

// Bounded Pareto on [lo, hi] with tail index alpha. Captures the heavy tail of
// tasks-per-job (most jobs are small; a few have thousands of tasks, Fig. 4).
class BoundedParetoDist final : public Distribution {
 public:
  BoundedParetoDist(double lo, double hi, double alpha);
  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  double lo_;
  double hi_;
  double alpha_;
};

// Piecewise-linear empirical distribution built from (value, cumulative
// probability) points. Sampling inverts the CDF with linear interpolation.
class EmpiricalDist final : public Distribution {
 public:
  struct Point {
    double value = 0.0;
    double cumulative = 0.0;  // in [0, 1], non-decreasing across points
  };

  // `points` must be non-empty, sorted by cumulative probability, and end with
  // cumulative == 1.0.
  explicit EmpiricalDist(std::vector<Point> points);

  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  std::vector<Point> points_;
};

// Weighted mixture of component distributions. Used e.g. for service-job
// durations, which combine a long-lived population (20-40% of service jobs run
// beyond a month, §2.1) with shorter-lived restarts.
class MixtureDist final : public Distribution {
 public:
  struct Component {
    double weight = 0.0;
    std::shared_ptr<const Distribution> dist;
  };

  // Weights must be positive; they are normalized internally.
  explicit MixtureDist(std::vector<Component> components);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  // Component i carries weight w_i * (its own partial moment over [a, b)).
  double PartialMoment(int k, double a, double b) const override;
  void AppendRestricted(int k, double a, double b, double scale,
                        PiecewiseLaw* law) const override;

 private:
  std::vector<Component> components_;  // weights normalized to cumulative form
};

// A distribution clamped to [lo, hi]; keeps heavy-tailed samples physical
// (e.g., a task cannot request more CPU than a machine has).
class ClampedDist final : public Distribution {
 public:
  ClampedDist(std::shared_ptr<const Distribution> inner, double lo, double hi);
  double Sample(Rng& rng) const override;
  // Exact: lo P(X < lo) + E[X; lo <= X < hi] + hi P(X >= hi), from the inner
  // family's partial moments (so it CHECK-fails where those do).
  double Mean() const override;
  // An atom at lo of mass P(X < lo), an atom at hi of mass P(X >= hi), and
  // the inner law on [lo, hi).
  double PartialMoment(int k, double a, double b) const override;
  void AppendRestricted(int k, double a, double b, double scale,
                        PiecewiseLaw* law) const override;

 private:
  // The three pieces of x^k dF on [a, b): the lo atom, the inner law on
  // [inner_a, inner_b), the hi atom.
  struct Pieces {
    double weights[3] = {0.0, 0.0, 0.0};
    double inner_a = 0.0;
    double inner_b = 0.0;
  };
  Pieces Split(int k, double a, double b) const;

  std::shared_ptr<const Distribution> inner_;
  double lo_;
  double hi_;
};

}  // namespace omega

