#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace swim::stats {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double accum = 0.0;
  for (double v : values) accum += (v - mean) * (v - mean);
  return accum / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // QuantileSorted's interpolation between the two order statistics around
  // rank p * (n - 1), each found by selection instead of a full sort.
  p = std::clamp(p, 0.0, 1.0);
  const double index = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(index));
  const size_t hi = static_cast<size_t>(std::ceil(index));
  const double fraction = index - static_cast<double>(lo);
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double low = values[lo];
  const double high =
      hi == lo ? low
               : *std::min_element(values.begin() + lo + 1, values.end());
  return low + (high - low) * fraction;
}

double QuantileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  double index = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(index));
  size_t hi = static_cast<size_t>(std::ceil(index));
  double fraction = index - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * fraction;
}

double Min(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double GeometricMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t count = 0;
  for (double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return std::exp(log_sum / static_cast<double>(count));
}

SortedStats::SortedStats(std::vector<double> values)
    : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  // One pass for all moments: plain sum (so Mean matches the free-function
  // Sum/size exactly) plus Welford's update for the squared deviations.
  double welford_mean = 0.0;
  size_t n = 0;
  for (double v : sorted_) {
    sum_ += v;
    ++n;
    double delta = v - welford_mean;
    welford_mean += delta / static_cast<double>(n);
    m2_ += delta * (v - welford_mean);
  }
  if (n > 0) mean_ = sum_ / static_cast<double>(n);
}

double SortedStats::Variance() const {
  if (sorted_.size() < 2) return 0.0;
  return m2_ / static_cast<double>(sorted_.size() - 1);
}

double SortedStats::StdDev() const { return std::sqrt(Variance()); }

Summary SortedStats::ToSummary() const {
  Summary summary;
  summary.count = sorted_.size();
  if (sorted_.empty()) return summary;
  summary.mean = mean_;
  summary.stddev = StdDev();
  summary.min = sorted_.front();
  summary.p25 = Quantile(0.25);
  summary.median = Quantile(0.5);
  summary.p75 = Quantile(0.75);
  summary.p90 = Quantile(0.90);
  summary.p99 = Quantile(0.99);
  summary.max = sorted_.back();
  summary.sum = sum_;
  return summary;
}

Summary Summarize(const std::vector<double>& values) {
  return SortedStats(values).ToSummary();
}

}  // namespace swim::stats
