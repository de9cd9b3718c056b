#ifndef SWIM_STATS_KMEANS_H_
#define SWIM_STATS_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"

namespace swim::stats {

/// Result of one k-means fit.
struct KMeansResult {
  /// Cluster centroids, k rows of `dims` columns, in the (possibly
  /// transformed) feature space handed to Fit.
  std::vector<std::vector<double>> centroids;
  /// Cluster index per input point.
  std::vector<int> assignments;
  /// Points per cluster.
  std::vector<size_t> sizes;
  /// Total within-cluster sum of squared distances.
  double residual_variance = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct KMeansOptions {
  int max_iterations = 100;
  /// Lloyd restarts; the best (lowest residual, ties to the lowest restart
  /// index) run wins. Restarts run concurrently, each on an independent
  /// Pcg32 stream seeded from `seed` + restart index, so the fit is
  /// byte-identical at any thread count.
  int restarts = 3;
  uint64_t seed = 1;
  /// Worker lanes for the assignment/update steps and the restarts: 0 =
  /// default (SWIM_THREADS env var, else hardware concurrency), 1 =
  /// serial. Never changes the result, only the wall clock.
  int threads = 0;
};

/// Lloyd's algorithm with k-means++ seeding, the clustering method the paper
/// uses (section 6.2) to derive Table 2's job categories. Points must be
/// non-empty rows of equal dimension; k must satisfy 1 <= k <= points.
StatusOr<KMeansResult> KMeansFit(
    const std::vector<std::vector<double>>& points, int k,
    const KMeansOptions& options = {});

struct ChooseKResult {
  int k = 0;
  /// Residual variance per candidate k (index 0 <-> k = 1).
  std::vector<double> residuals;
  /// The search's fit at the chosen k: equal to KMeansFit(points, k,
  /// options), so callers need not fit it again.
  KMeansResult fit;
};

/// Chooses k by the paper's rule: "increment k until there is diminishing
/// return in the decrease of intra-cluster (residual) variance".
/// Concretely, stops at the first k whose residual improvement over k-1,
/// measured as a fraction of the TOTAL variance (the k=1 residual), falls
/// below `min_improvement`, or at max_k. Normalizing by total variance
/// (rather than the previous residual) makes the rule scale-aware: once
/// the real cluster structure is captured, splitting a single dense blob
/// gains only a sliver of total variance and the search stops.
StatusOr<ChooseKResult> ChooseKByElbow(
    const std::vector<std::vector<double>>& points, int max_k,
    double min_improvement = 0.1, const KMeansOptions& options = {});

/// Standardizes columns to zero mean / unit variance in place. Columns with
/// zero variance are left centered. Returns per-column (mean, stddev) so
/// centroids can be mapped back.
struct ColumnScaling {
  std::vector<double> mean;
  std::vector<double> stddev;
};
ColumnScaling StandardizeColumns(std::vector<std::vector<double>>& points);

/// Inverse of StandardizeColumns for a single row.
std::vector<double> UnstandardizeRow(const std::vector<double>& row,
                                     const ColumnScaling& scaling);

}  // namespace swim::stats

#endif  // SWIM_STATS_KMEANS_H_
