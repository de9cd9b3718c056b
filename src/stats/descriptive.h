#ifndef SWIM_STATS_DESCRIPTIVE_H_
#define SWIM_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

namespace swim::stats {

/// Arithmetic mean. Returns 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double Variance(const std::vector<double>& values);

/// Sample standard deviation.
double StdDev(const std::vector<double>& values);

/// Median (linear-interpolated). Returns 0 for an empty input.
double Median(const std::vector<double>& values);

/// p-th quantile with linear interpolation, p in [0, 1]. Returns 0 for an
/// empty input. p outside [0,1] is clamped.
///
/// Takes `values` by value and selects the two order statistics around the
/// rank in O(n) (nth_element), with QuantileSorted's interpolation, so the
/// result equals QuantileSorted on the sorted copy. Any caller reading two
/// or more quantiles (or a quantile plus moments) from the same data should
/// build a SortedStats (or call QuantileSorted on data it sorted itself)
/// instead.
double Quantile(std::vector<double> values, double p);

/// Same as Quantile but requires `sorted` be ascending; no copy is made.
double QuantileSorted(const std::vector<double>& sorted, double p);

double Min(const std::vector<double>& values);
double Max(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Geometric mean of strictly positive values; zero/negative entries are
/// skipped. Returns 0 when no positive entries exist.
double GeometricMean(const std::vector<double>& values);

struct Summary {
  size_t count = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
  double sum = 0;
};

/// Sort-once view over a sample: the constructor sorts the (moved-in)
/// values once and computes all moments in a single Welford pass; every
/// quantile read afterwards is O(1). Use this wherever the same data
/// feeds more than one Quantile / Median / Mean / StdDev call - the
/// per-call copy-and-sort of the free functions above is the single
/// largest avoidable cost in the report hot paths.
class SortedStats {
 public:
  SortedStats() = default;

  /// Takes ownership, sorts ascending, accumulates moments in one pass.
  explicit SortedStats(std::vector<double> values);

  bool empty() const { return sorted_.empty(); }
  size_t count() const { return sorted_.size(); }

  /// p-th quantile (linear interpolation, p clamped to [0,1]); O(1).
  double Quantile(double p) const { return QuantileSorted(sorted_, p); }
  double Median() const { return Quantile(0.5); }

  double Min() const { return sorted_.empty() ? 0.0 : sorted_.front(); }
  double Max() const { return sorted_.empty() ? 0.0 : sorted_.back(); }
  double Mean() const { return mean_; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double Variance() const;
  double StdDev() const;
  double Sum() const { return sum_; }

  /// The full descriptive summary; all fields read from the precomputed
  /// state, no further passes.
  Summary ToSummary() const;

  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Welford sum of squared deviations
  double sum_ = 0.0;
};

/// Descriptive summary: one sort plus one moment pass over the data
/// (equivalent to SortedStats(values).ToSummary()).
Summary Summarize(const std::vector<double>& values);

}  // namespace swim::stats

#endif  // SWIM_STATS_DESCRIPTIVE_H_
