#include "stats/empirical_cdf.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace swim::stats {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

EmpiricalCdf EmpiricalCdf::FromSorted(std::vector<double> sorted) {
  EmpiricalCdf cdf;
  cdf.sorted_ = std::move(sorted);
  return cdf;
}

double EmpiricalCdf::Fraction(double x) const {
  if (sorted_.empty()) return 0.0;
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::Quantile(double p) const {
  return QuantileSorted(sorted_, p);
}

double EmpiricalCdf::Sample(Pcg32& rng) const {
  if (sorted_.empty()) return 0.0;
  return Quantile(rng.NextDouble());
}

double EmpiricalCdf::min() const { return sorted_.empty() ? 0.0 : sorted_.front(); }
double EmpiricalCdf::max() const { return sorted_.empty() ? 0.0 : sorted_.back(); }

double EmpiricalCdf::KsDistance(const EmpiricalCdf& a, const EmpiricalCdf& b) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  double distance = 0.0;
  // Evaluate at every sample point of both distributions.
  for (double x : a.sorted_) {
    distance = std::max(distance, std::fabs(a.Fraction(x) - b.Fraction(x)));
  }
  for (double x : b.sorted_) {
    distance = std::max(distance, std::fabs(a.Fraction(x) - b.Fraction(x)));
  }
  return distance;
}

EmpiricalCdf::Curve EmpiricalCdf::LogCurve(size_t points, double floor) const {
  Curve curve;
  if (sorted_.empty() || points == 0) return curve;
  double lo = std::max(min(), floor);
  if (lo <= 0.0) {
    // A log axis cannot reach zero: zero-byte jobs with a non-positive
    // floor would feed log10 a non-positive value and poison the curve
    // with NaN/-inf. Start at the smallest positive sample instead.
    auto it = std::upper_bound(sorted_.begin(), sorted_.end(), 0.0);
    if (it == sorted_.end()) {
      // No positive mass at all; the whole distribution sits at <= 0.
      curve.x.push_back(0.0);
      curve.fraction.push_back(1.0);
      return curve;
    }
    lo = *it;
  }
  double hi = std::max(max(), lo);
  if (hi <= lo || points == 1) {
    // Degenerate span (or a single requested point, which would divide by
    // zero below): one point at the top of the range covers everything.
    curve.x.push_back(hi);
    curve.fraction.push_back(1.0);
    return curve;
  }
  double log_lo = std::log10(lo);
  double log_hi = std::log10(hi);
  curve.x.reserve(points);
  curve.fraction.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    double t = static_cast<double>(i) / static_cast<double>(points - 1);
    double x = std::pow(10.0, log_lo + t * (log_hi - log_lo));
    curve.x.push_back(x);
    curve.fraction.push_back(Fraction(x));
  }
  return curve;
}

}  // namespace swim::stats
