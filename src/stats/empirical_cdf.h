#ifndef SWIM_STATS_EMPIRICAL_CDF_H_
#define SWIM_STATS_EMPIRICAL_CDF_H_

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace swim::stats {

/// Empirical cumulative distribution over a sample. This is the paper's
/// workhorse representation: section 7 argues MapReduce workload dimensions
/// do not fit well-known closed-form distributions, so "the workload traces
/// are the model" - synthesis resamples empirical CDFs directly.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Builds from (possibly unsorted) samples. Keeps a sorted copy.
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Adopts samples the caller already sorted ascending.
  static EmpiricalCdf FromSorted(std::vector<double> sorted);

  bool empty() const { return sorted_.empty(); }
  size_t size() const { return sorted_.size(); }

  /// Fraction of samples <= x, in [0, 1].
  double Fraction(double x) const;

  /// p-th quantile with linear interpolation, p clamped to [0, 1].
  double Quantile(double p) const;

  /// Inverse-transform sampling: draws a value distributed per this CDF,
  /// interpolating between adjacent order statistics so synthesized values
  /// are not restricted to observed points.
  double Sample(Pcg32& rng) const;

  double min() const;
  double max() const;
  double median() const { return Quantile(0.5); }

  /// Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)| between two
  /// empirical CDFs. Returns 1 when either is empty and the other is not,
  /// and 0 when both are empty.
  static double KsDistance(const EmpiricalCdf& a, const EmpiricalCdf& b);

  /// Evaluation points and fractions for plotting on a log axis: `points`
  /// log-spaced over [max(min, floor), max], clamped below by `floor`
  /// (default 1.0, suitable for byte-valued data).
  struct Curve {
    std::vector<double> x;
    std::vector<double> fraction;
  };
  Curve LogCurve(size_t points = 64, double floor = 1.0) const;

  const std::vector<double>& sorted_samples() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace swim::stats

#endif  // SWIM_STATS_EMPIRICAL_CDF_H_
