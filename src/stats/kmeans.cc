#include "stats/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"

namespace swim::stats {
namespace {

/// Points per ParallelFor chunk in the assignment/update/residual passes.
/// Fixed (independent of thread count) so per-chunk partial sums merge in
/// the same order at any parallelism, keeping centroids byte-identical.
constexpr size_t kPointGrain = 2048;

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double total = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    double diff = a[d] - b[d];
    total += diff * diff;
  }
  return total;
}

/// k-means++ initialization: the first centroid is uniform, each subsequent
/// centroid is drawn with probability proportional to squared distance to
/// the nearest chosen centroid.
std::vector<std::vector<double>> SeedCentroids(
    const std::vector<std::vector<double>>& points, int k, Pcg32& rng) {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.NextBounded(points.size())]);

  std::vector<double> nearest(points.size(),
                              std::numeric_limits<double>::max());
  while (static_cast<int>(centroids.size()) < k) {
    const auto& latest = centroids.back();
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      nearest[i] = std::min(nearest[i], SquaredDistance(points[i], latest));
      total += nearest[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; duplicate one.
      centroids.push_back(points[rng.NextBounded(points.size())]);
      continue;
    }
    double target = rng.NextDouble() * total;
    double cumulative = 0.0;
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      cumulative += nearest[i];
      if (target < cumulative) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

/// Per-chunk partial accumulator for the fused assignment + update pass.
struct ChunkPartial {
  std::vector<std::vector<double>> sums;  // k x dims
  std::vector<size_t> counts;             // k
  bool changed = false;
  double residual = 0.0;
};

KMeansResult LloydOnce(const std::vector<std::vector<double>>& points, int k,
                       int max_iterations, Pcg32& rng, int threads) {
  const size_t dims = points[0].size();
  KMeansResult result;
  result.centroids = SeedCentroids(points, k, rng);
  result.assignments.assign(points.size(), -1);

  const size_t chunk_count = (points.size() + kPointGrain - 1) / kPointGrain;
  std::vector<ChunkPartial> partials(chunk_count);

  for (int iter = 0; iter < max_iterations; ++iter) {
    // Fused assignment + partial update: each chunk assigns its points
    // (disjoint writes) and accumulates per-cluster sums/counts locally.
    ParallelFor(
        0, points.size(), kPointGrain,
        [&](size_t lo, size_t hi) {
          ChunkPartial& part = partials[lo / kPointGrain];
          part.sums.assign(k, std::vector<double>(dims, 0.0));
          part.counts.assign(k, 0);
          part.changed = false;
          for (size_t i = lo; i < hi; ++i) {
            int best = 0;
            double best_dist = std::numeric_limits<double>::max();
            for (int c = 0; c < k; ++c) {
              double dist = SquaredDistance(points[i], result.centroids[c]);
              if (dist < best_dist) {
                best_dist = dist;
                best = c;
              }
            }
            if (result.assignments[i] != best) {
              result.assignments[i] = best;
              part.changed = true;
            }
            for (size_t d = 0; d < dims; ++d) part.sums[best][d] += points[i][d];
            ++part.counts[best];
          }
        },
        threads);

    bool changed = false;
    for (const ChunkPartial& part : partials) changed |= part.changed;
    result.iterations = iter + 1;
    if (!changed) {
      result.converged = true;
      break;
    }
    // Merge partials in chunk order (fixed by kPointGrain, not by thread
    // count) so the new centroids are byte-identical at any parallelism.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<size_t> counts(k, 0);
    for (const ChunkPartial& part : partials) {
      for (int c = 0; c < k; ++c) {
        counts[c] += part.counts[c];
        for (size_t d = 0; d < dims; ++d) sums[c][d] += part.sums[c][d];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        result.centroids[c] = points[rng.NextBounded(points.size())];
        continue;
      }
      for (size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }

  // Final sizes + residual, again via chunk partials merged in order.
  ParallelFor(
      0, points.size(), kPointGrain,
      [&](size_t lo, size_t hi) {
        ChunkPartial& part = partials[lo / kPointGrain];
        part.counts.assign(k, 0);
        part.residual = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          int c = result.assignments[i];
          ++part.counts[c];
          part.residual += SquaredDistance(points[i], result.centroids[c]);
        }
      },
      threads);
  result.sizes.assign(k, 0);
  result.residual_variance = 0.0;
  for (const ChunkPartial& part : partials) {
    for (int c = 0; c < k; ++c) result.sizes[c] += part.counts[c];
    result.residual_variance += part.residual;
  }
  return result;
}

}  // namespace

StatusOr<KMeansResult> KMeansFit(
    const std::vector<std::vector<double>>& points, int k,
    const KMeansOptions& options) {
  if (points.empty()) {
    return InvalidArgumentError("k-means requires at least one point");
  }
  if (k < 1 || static_cast<size_t>(k) > points.size()) {
    return InvalidArgumentError("k must be in [1, number of points]");
  }
  const size_t dims = points[0].size();
  if (dims == 0) return InvalidArgumentError("points must have dimension > 0");
  for (const auto& p : points) {
    if (p.size() != dims) {
      return InvalidArgumentError("points have inconsistent dimensions");
    }
  }

  // Restarts are independent: each gets its own Pcg32 stream derived from
  // the user seed and its restart index, so they can run concurrently and
  // still produce byte-identical fits at any thread count.
  const int restarts = std::max(1, options.restarts);
  std::vector<KMeansResult> runs(restarts);
  ParallelFor(
      0, static_cast<size_t>(restarts), 1,
      [&](size_t lo, size_t hi) {
        for (size_t r = lo; r < hi; ++r) {
          Pcg32 rng(options.seed + r, /*stream=*/17);
          runs[r] =
              LloydOnce(points, k, options.max_iterations, rng, options.threads);
        }
      },
      options.threads);
  // Lowest residual wins; ties break to the lowest restart index.
  KMeansResult best;
  best.residual_variance = std::numeric_limits<double>::max();
  for (KMeansResult& run : runs) {
    if (run.residual_variance < best.residual_variance) best = std::move(run);
  }
  return best;
}

StatusOr<ChooseKResult> ChooseKByElbow(
    const std::vector<std::vector<double>>& points, int max_k,
    double min_improvement, const KMeansOptions& options) {
  if (max_k < 1) return InvalidArgumentError("max_k must be >= 1");
  if (points.empty()) {
    // Without this, max_k clamps to 0, the loop never runs, and a default
    // ChooseKResult{k=0} would be returned as success. Match KMeansFit.
    return InvalidArgumentError("k-means requires at least one point");
  }
  max_k = std::min<int>(max_k, static_cast<int>(points.size()));

  ChooseKResult chosen;
  double total_variance = 0.0;  // the k = 1 residual
  double previous = 0.0;
  for (int k = 1; k <= max_k; ++k) {
    SWIM_ASSIGN_OR_RETURN(KMeansResult run, KMeansFit(points, k, options));
    chosen.residuals.push_back(run.residual_variance);
    if (k == 1) {
      chosen.k = 1;
      total_variance = run.residual_variance;
      previous = run.residual_variance;
      chosen.fit = std::move(run);
      if (total_variance <= 1e-12) break;  // all points identical
      continue;
    }
    double improvement = (previous - run.residual_variance) / total_variance;
    if (improvement < min_improvement) break;
    chosen.k = k;
    previous = run.residual_variance;
    chosen.fit = std::move(run);
    if (previous <= 1e-12) break;  // perfect fit; stop early
  }
  return chosen;
}

ColumnScaling StandardizeColumns(std::vector<std::vector<double>>& points) {
  ColumnScaling scaling;
  if (points.empty()) return scaling;
  const size_t dims = points[0].size();
  scaling.mean.assign(dims, 0.0);
  scaling.stddev.assign(dims, 0.0);
  const double n = static_cast<double>(points.size());

  for (const auto& p : points) {
    for (size_t d = 0; d < dims; ++d) scaling.mean[d] += p[d];
  }
  for (size_t d = 0; d < dims; ++d) scaling.mean[d] /= n;
  for (const auto& p : points) {
    for (size_t d = 0; d < dims; ++d) {
      double diff = p[d] - scaling.mean[d];
      scaling.stddev[d] += diff * diff;
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    scaling.stddev[d] = std::sqrt(scaling.stddev[d] / n);
  }
  for (auto& p : points) {
    for (size_t d = 0; d < dims; ++d) {
      p[d] -= scaling.mean[d];
      if (scaling.stddev[d] > 0.0) p[d] /= scaling.stddev[d];
    }
  }
  return scaling;
}

std::vector<double> UnstandardizeRow(const std::vector<double>& row,
                                     const ColumnScaling& scaling) {
  SWIM_CHECK_EQ(row.size(), scaling.mean.size());
  std::vector<double> result(row.size());
  for (size_t d = 0; d < row.size(); ++d) {
    double scale = scaling.stddev[d] > 0.0 ? scaling.stddev[d] : 1.0;
    result[d] = row[d] * scale + scaling.mean[d];
  }
  return result;
}

}  // namespace swim::stats
