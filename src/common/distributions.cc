#include "src/common/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace omega {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// P(lo <= Z < hi) for a standard normal Z, taken from the tail the interval
// lies in so that deep-tail masses keep their relative precision.
double NormalMass(double lo, double hi) {
  if (lo >= 0.0) {
    return NormalCdf(-lo) - NormalCdf(-hi);
  }
  return NormalCdf(hi) - NormalCdf(lo);
}

double PowerK(double x, int k) { return k == 0 ? 1.0 : x; }

void CheckMomentOrder(int k) {
  OMEGA_CHECK(k == 0 || k == 1) << "moment order " << k << " not in {0, 1}";
}

}  // namespace

double NormalCdf(double z) { return 0.5 * std::erfc(-z * M_SQRT1_2); }

double NormalQuantile(double p) {
  OMEGA_CHECK(p >= 0.0 && p <= 1.0) << "probability " << p;
  // Wichura, "Algorithm AS 241: The percentage points of the normal
  // distribution", Applied Statistics 37(3), 1988 (PPND16).
  const double q = p - 0.5;
  if (std::abs(q) <= 0.425) {
    const double r = 0.180625 - q * q;
    return q *
           (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r +
                 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r +
               1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r +
             1.3314166789178437745e2) * r + 3.3871328727963666080e0) /
           (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r +
                 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r +
               5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r +
             4.2313330701600911252e1) * r + 1.0);
  }
  // Tails: r = sqrt(-log(min(p, 1 - p))).
  const double tail = q < 0.0 ? p : 1.0 - p;
  if (tail <= 0.0) {
    return q < 0.0 ? -kInf : kInf;
  }
  double r = std::sqrt(-std::log(tail));
  double z;
  if (r <= 5.0) {
    r -= 1.6;
    z = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r +
              2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r +
            3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r +
          4.63033784615654529590e0) * r + 1.42343711074968357734e0) /
        (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r +
              1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r +
            6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r +
          2.05319162663775882187e0) * r + 1.0);
  } else {
    r -= 5.0;
    z = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r +
              1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r +
            2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r +
          5.46378491116411436990e0) * r + 6.65790464350110377720e0) /
        (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r +
              1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r +
            1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r +
          5.99832206555887937690e-1) * r + 1.0);
  }
  return q < 0.0 ? -z : z;
}

PiecewiseLaw Distribution::LengthBiased(double cap) const {
  OMEGA_CHECK(cap > 0.0) << "cap " << cap;
  PiecewiseLaw law;
  AppendRestricted(1, 0.0, cap, 1.0, &law);
  AppendRestricted(0, cap, kInf, cap, &law);
  law.TotalWeight();  // CHECKs that the law has mass
  return law;
}

double Distribution::PartialMoment(int, double, double) const {
  OMEGA_CHECK(false) << "no closed-form partial moments for this distribution";
  return 0.0;
}

void Distribution::AppendRestricted(int, double, double, double,
                                    PiecewiseLaw*) const {
  OMEGA_CHECK(false) << "no closed-form restricted law for this distribution";
}

void PiecewiseLaw::AddAtom(double weight, double value) {
  Piece piece;
  piece.value = value;
  Add(weight, piece);
}

void PiecewiseLaw::AddLogNormal(double weight, double mu, double sigma,
                                double z_lo, double z_hi, double a, double b) {
  Piece piece;
  piece.atom = false;
  piece.upper_tail = z_lo >= 0.0;
  // Probabilities of the tail the interval lies in: P(Z >= z) when it is
  // the upper tail, P(Z < z) otherwise.
  auto tail = [&](double z) {
    return piece.upper_tail ? NormalCdf(-z) : NormalCdf(z);
  };
  piece.base = tail(z_lo);
  piece.span = tail(z_hi) - piece.base;
  piece.mu = mu;
  piece.sigma = sigma;
  piece.a = a;
  piece.b = b;
  Add(weight, piece);
}

void PiecewiseLaw::Add(double weight, Piece piece) {
  OMEGA_CHECK(weight >= 0.0) << "piece weight " << weight;
  if (weight == 0.0) {
    return;
  }
  piece.cumulative = weight;
  if (!pieces_.empty()) {
    piece.cumulative += pieces_.back().cumulative;
  }
  pieces_.push_back(piece);
}

double PiecewiseLaw::TotalWeight() const {
  const double total = pieces_.empty() ? 0.0 : pieces_.back().cumulative;
  OMEGA_CHECK(total > 0.0) << "no probability mass in the sampled range";
  return total;
}

double PiecewiseLaw::Sample(Rng& rng) const {
  const double u = rng.NextDouble() * TotalWeight();
  auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), u,
      [](double value, const Piece& p) { return value < p.cumulative; });
  const Piece& p = it == pieces_.end() ? pieces_.back() : *it;
  if (p.atom) {
    return p.value;
  }
  const double t = p.base + rng.NextDouble() * p.span;
  const double z = p.upper_tail ? -NormalQuantile(t) : NormalQuantile(t);
  return std::clamp(std::exp(p.mu + p.sigma * z), p.a, p.b);
}

double ConstantDist::PartialMoment(int k, double a, double b) const {
  CheckMomentOrder(k);
  return a <= value_ && value_ < b ? PowerK(value_, k) : 0.0;
}

void ConstantDist::AppendRestricted(int k, double a, double b, double scale,
                                    PiecewiseLaw* law) const {
  law->AddAtom(scale * PartialMoment(k, a, b), value_);
}

UniformDist::UniformDist(double lo, double hi) : lo_(lo), hi_(hi) {
  OMEGA_CHECK(lo <= hi) << "uniform [" << lo << ", " << hi << ")";
}

double UniformDist::Sample(Rng& rng) const { return rng.NextRange(lo_, hi_); }

ExponentialDist::ExponentialDist(double mean) : mean_(mean) {
  OMEGA_CHECK(mean > 0.0) << "exponential mean " << mean;
}

double ExponentialDist::Sample(Rng& rng) const {
  // Inverse-CDF; 1 - u avoids log(0).
  return -mean_ * std::log(1.0 - rng.NextDouble());
}

LogNormalDist::LogNormalDist(double mean, double sigma) : sigma_(sigma) {
  OMEGA_CHECK(mean > 0.0) << "log-normal mean " << mean;
  OMEGA_CHECK(sigma >= 0.0) << "log-normal sigma " << sigma;
  // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  mu_ = std::log(mean) - 0.5 * sigma * sigma;
}

double LogNormalDist::Sample(Rng& rng) const {
  // Box-Muller transform.
  const double u1 = 1.0 - rng.NextDouble();
  const double u2 = rng.NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return std::exp(mu_ + sigma_ * z);
}

double LogNormalDist::Mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

double LogNormalDist::PartialMoment(int k, double a, double b) const {
  CheckMomentOrder(k);
  if (!(a < b)) {
    return 0.0;
  }
  return PowerK(Mean(), k) * NormalMass(Standardize(a, k), Standardize(b, k));
}

void LogNormalDist::AppendRestricted(int k, double a, double b, double scale,
                                     PiecewiseLaw* law) const {
  law->AddLogNormal(scale * PartialMoment(k, a, b), mu_ + k * sigma_ * sigma_,
                    sigma_, Standardize(a, k), Standardize(b, k), a, b);
}

double LogNormalDist::Standardize(double x, int k) const {
  if (x <= 0.0) {
    return -kInf;
  }
  const double d = std::log(x) - mu_ - k * sigma_ * sigma_;
  if (sigma_ == 0.0) {
    // An atom at exp(mu): a bound at or below it standardizes to -inf, one
    // above it to +inf, so [a, b) holds the atom iff a <= exp(mu) < b.
    return d > 0.0 ? kInf : -kInf;
  }
  return d / sigma_;
}

BoundedParetoDist::BoundedParetoDist(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha) {
  OMEGA_CHECK(lo > 0.0) << "bounded Pareto lo " << lo;
  OMEGA_CHECK(hi >= lo) << "bounded Pareto [" << lo << ", " << hi << "]";
  OMEGA_CHECK(alpha > 0.0) << "bounded Pareto alpha " << alpha;
}

double BoundedParetoDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

double BoundedParetoDist::Mean() const {
  if (std::abs(alpha_ - 1.0) < 1e-12) {
    const double la = lo_;
    const double ha = hi_;
    return (std::log(ha) - std::log(la)) * la * ha / (ha - la);
  }
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return la / (1.0 - la / ha) * (alpha_ / (alpha_ - 1.0)) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) - 1.0 / std::pow(hi_, alpha_ - 1.0));
}

EmpiricalDist::EmpiricalDist(std::vector<Point> points) : points_(std::move(points)) {
  OMEGA_CHECK(!points_.empty()) << "empirical distribution without points";
  OMEGA_CHECK(std::is_sorted(points_.begin(), points_.end(),
                             [](const Point& a, const Point& b) {
                               return a.cumulative < b.cumulative;
                             }))
      << "empirical points not sorted by cumulative probability";
  OMEGA_CHECK(points_.back().cumulative >= 1.0 - 1e-9)
      << "empirical CDF ends at " << points_.back().cumulative;
}

double EmpiricalDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(
      points_.begin(), points_.end(), u,
      [](const Point& p, double value) { return p.cumulative < value; });
  if (it == points_.begin()) {
    return points_.front().value;
  }
  if (it == points_.end()) {
    return points_.back().value;
  }
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.cumulative - lo.cumulative;
  if (span <= 0.0) {
    return hi.value;
  }
  const double frac = (u - lo.cumulative) / span;
  return lo.value + frac * (hi.value - lo.value);
}

double EmpiricalDist::Mean() const {
  // Mean of the piecewise-linear CDF: each segment contributes the midpoint
  // value weighted by its probability mass.
  double mean = points_.front().value * points_.front().cumulative;
  for (size_t i = 1; i < points_.size(); ++i) {
    const double mass = points_[i].cumulative - points_[i - 1].cumulative;
    mean += 0.5 * (points_[i].value + points_[i - 1].value) * mass;
  }
  return mean;
}

MixtureDist::MixtureDist(std::vector<Component> components)
    : components_(std::move(components)) {
  OMEGA_CHECK(!components_.empty()) << "mixture without components";
  double total = 0.0;
  for (const Component& c : components_) {
    OMEGA_CHECK(c.weight > 0.0) << "mixture weight " << c.weight;
    OMEGA_CHECK(c.dist != nullptr) << "mixture component without distribution";
    total += c.weight;
  }
  // Convert to cumulative weights for O(components) sampling.
  double cumulative = 0.0;
  for (Component& c : components_) {
    cumulative += c.weight / total;
    c.weight = cumulative;
  }
  components_.back().weight = 1.0;
}

double MixtureDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  for (const Component& c : components_) {
    if (u <= c.weight) {
      return c.dist->Sample(rng);
    }
  }
  return components_.back().dist->Sample(rng);
}

double MixtureDist::Mean() const {
  double mean = 0.0;
  double prev = 0.0;
  for (const Component& c : components_) {
    mean += (c.weight - prev) * c.dist->Mean();
    prev = c.weight;
  }
  return mean;
}

double MixtureDist::PartialMoment(int k, double a, double b) const {
  double moment = 0.0;
  double prev = 0.0;
  for (const Component& c : components_) {
    moment += (c.weight - prev) * c.dist->PartialMoment(k, a, b);
    prev = c.weight;
  }
  return moment;
}

void MixtureDist::AppendRestricted(int k, double a, double b, double scale,
                                   PiecewiseLaw* law) const {
  double prev = 0.0;
  for (const Component& c : components_) {
    c.dist->AppendRestricted(k, a, b, scale * (c.weight - prev), law);
    prev = c.weight;
  }
}

ClampedDist::ClampedDist(std::shared_ptr<const Distribution> inner, double lo,
                         double hi)
    : inner_(std::move(inner)), lo_(lo), hi_(hi) {
  OMEGA_CHECK(inner_ != nullptr) << "clamped distribution without inner";
  OMEGA_CHECK(lo <= hi) << "clamp [" << lo << ", " << hi << "]";
}

double ClampedDist::Sample(Rng& rng) const {
  return std::clamp(inner_->Sample(rng), lo_, hi_);
}

double ClampedDist::Mean() const { return PartialMoment(1, -kInf, kInf); }

ClampedDist::Pieces ClampedDist::Split(int k, double a, double b) const {
  CheckMomentOrder(k);
  Pieces p;
  if (a <= lo_ && lo_ < b) {
    p.weights[0] = PowerK(lo_, k) * inner_->PartialMoment(0, -kInf, lo_);
  }
  p.inner_a = std::max(a, lo_);
  p.inner_b = std::min(b, hi_);
  if (p.inner_a < p.inner_b) {
    p.weights[1] = inner_->PartialMoment(k, p.inner_a, p.inner_b);
  }
  if (a <= hi_ && hi_ < b) {
    p.weights[2] = PowerK(hi_, k) * inner_->PartialMoment(0, hi_, kInf);
  }
  return p;
}

double ClampedDist::PartialMoment(int k, double a, double b) const {
  const Pieces p = Split(k, a, b);
  return p.weights[0] + p.weights[1] + p.weights[2];
}

void ClampedDist::AppendRestricted(int k, double a, double b, double scale,
                                   PiecewiseLaw* law) const {
  const Pieces p = Split(k, a, b);
  law->AddAtom(scale * p.weights[0], lo_);
  if (p.inner_a < p.inner_b) {
    inner_->AppendRestricted(k, p.inner_a, p.inner_b, scale, law);
  }
  law->AddAtom(scale * p.weights[2], hi_);
}

}  // namespace omega
