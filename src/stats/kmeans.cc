#include "stats/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"

namespace swim::stats {
namespace {

/// Points per ParallelFor chunk in the assignment/update/residual passes.
/// Fixed (independent of thread count) so per-chunk partial sums merge in
/// the same order at any parallelism, keeping centroids byte-identical.
constexpr size_t kPointGrain = 2048;

/// Relative slack on the Hamerly bounds: each loosening scales an upper
/// bound by 1 + kBoundSlack and a lower bound by 1 - kBoundSlack, which
/// dwarfs the few-ulp rounding of a computed distance, so a bound that
/// proves a point settled proves it for the computed distances too.
constexpr double kBoundSlack = 1e-9;
constexpr double kGrow = 1.0 + kBoundSlack;
constexpr double kShrink = 1.0 - kBoundSlack;
/// The slack covers rounding only while a squared distance sums few terms
/// and neither overflows nor underflows: bounds are kept for at most this
/// many dims, and a lower bound this small or smaller proves nothing.
constexpr size_t kMaxBoundedDims = 4096;
constexpr double kMinUsefulLower = 1e-140;

double SquaredDistance(const double* a, const double* b, size_t dims) {
  double total = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    double diff = a[d] - b[d];
    total += diff * diff;
  }
  return total;
}

/// True when the bounds are sound on these points: few enough dims, and
/// every coordinate finite and small enough that no squared distance
/// between two points (or means of points) can overflow.
bool BoundsAreSound(const PointMatrix& points) {
  if (points.dims > kMaxBoundedDims) return false;
  const double limit =
      0.25 * std::sqrt(std::numeric_limits<double>::max() /
                       static_cast<double>(points.dims));
  for (double v : points.values) {
    if (!(std::abs(v) <= limit)) return false;
  }
  return true;
}

/// k-means++ initialization: the first centroid is uniform, each subsequent
/// centroid is drawn with probability proportional to squared distance to
/// the nearest chosen centroid. Returns k x dims centroids, row-major.
std::vector<double> SeedCentroids(const PointMatrix& points, int k, Pcg32& rng,
                                  uint64_t* evaluations) {
  const size_t n = points.rows();
  const size_t dims = points.dims;
  std::vector<double> centroids;
  centroids.reserve(static_cast<size_t>(k) * dims);
  auto add = [&](size_t i) {
    centroids.insert(centroids.end(), points.row(i), points.row(i) + dims);
  };
  add(rng.NextBounded(n));

  std::vector<double> nearest(n, std::numeric_limits<double>::max());
  for (int c = 1; c < k; ++c) {
    const double* latest = centroids.data() + (c - 1) * dims;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      nearest[i] =
          std::min(nearest[i], SquaredDistance(points.row(i), latest, dims));
      total += nearest[i];
    }
    *evaluations += n;
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; duplicate one.
      add(rng.NextBounded(n));
      continue;
    }
    double target = rng.NextDouble() * total;
    double cumulative = 0.0;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      cumulative += nearest[i];
      if (target < cumulative) {
        chosen = i;
        break;
      }
    }
    add(chosen);
  }
  return centroids;
}

/// Per-chunk partials of one Lloyd run: allocated once per run, reset in
/// place by every pass.
struct ChunkPartial {
  std::vector<double> sums;   // k x dims, row-major
  std::vector<size_t> counts;  // k
  bool changed = false;
  double residual = 0.0;
  uint64_t evaluations = 0;
};

/// What one assignment pass reads, and the per-point arrays it writes.
/// Scalars are copied into locals by AssignChunk so they stay in registers
/// across the stores of the point loop.
struct AssignPass {
  const PointMatrix* points = nullptr;
  const double* centroids = nullptr;  // k x dims, row-major
  int k = 0;
  /// Bounds are kept (`upper`/`lower` non-null), and valid from a previous
  /// pass (`loosen`: loosen them by `moved` before testing).
  bool bounded = false;
  bool loosen = false;
  /// How far each centroid moved in the last update, inflated by kGrow;
  /// the largest movement, its cluster, and the largest among the rest.
  const double* moved = nullptr;
  int farthest = 0;
  double max_moved = 0.0;
  double second_moved = 0.0;
  int* assignments = nullptr;
  double* upper = nullptr;
  double* lower = nullptr;
};

/// Assigns points [lo, hi) to their nearest centroid and accumulates them
/// into `part`, point by point. `upper[i]` bounds the distance from point i
/// to its own centroid from above, `lower[i]` its distance to every other
/// centroid from below. When upper < lower the point provably keeps its
/// cluster and its k distance computations are skipped; every other point
/// computes all k in index order, exactly as plain Lloyd.
void AssignChunk(const AssignPass& pass, size_t lo, size_t hi,
                 ChunkPartial& part) {
  const PointMatrix& points = *pass.points;
  const size_t dims = points.dims;
  const int k = pass.k;
  const double* centroids = pass.centroids;
  const bool bounded = pass.bounded;
  const bool loosen = pass.loosen;
  const int farthest = pass.farthest;
  const double max_moved = pass.max_moved;
  const double second_moved = pass.second_moved;
  int* assignments = pass.assignments;
  double* upper = pass.upper;
  double* lower = pass.lower;
  double* sums = part.sums.data();
  size_t* counts = part.counts.data();

  std::fill(part.sums.begin(), part.sums.end(), 0.0);
  std::fill(part.counts.begin(), part.counts.end(), 0);
  bool changed = false;
  uint64_t evaluations = 0;
  for (size_t i = lo; i < hi; ++i) {
    const double* x = points.row(i);
    int best = assignments[i];
    bool settled = false;
    bool have_own = false;
    double own = 0.0;
    if (loosen) {
      upper[i] = (upper[i] + pass.moved[best]) * kGrow;
      lower[i] = lower[i] * kShrink -
                 (best == farthest ? second_moved : max_moved);
      settled = upper[i] < lower[i] && lower[i] > kMinUsefulLower;
      if (!settled) {
        // Tighten the upper bound with the one exact distance.
        own = SquaredDistance(x, centroids + best * dims, dims);
        ++evaluations;
        have_own = true;
        upper[i] = std::sqrt(own);
        settled = upper[i] < lower[i] && lower[i] > kMinUsefulLower;
      }
    }
    if (!settled) {
      const int own_cluster = best;
      best = 0;
      double best_dist = std::numeric_limits<double>::max();
      double second_dist = std::numeric_limits<double>::max();
      for (int c = 0; c < k; ++c) {
        const double dist = have_own && c == own_cluster
                                ? own
                                : SquaredDistance(x, centroids + c * dims,
                                                  dims);
        if (dist < best_dist) {
          second_dist = best_dist;
          best_dist = dist;
          best = c;
        } else if (dist < second_dist) {
          second_dist = dist;
        }
      }
      evaluations += have_own ? k - 1 : k;
      if (bounded) {
        upper[i] = std::sqrt(best_dist);
        lower[i] = k > 1 ? std::sqrt(second_dist)
                         : std::numeric_limits<double>::infinity();
      }
    }
    if (assignments[i] != best) {
      assignments[i] = best;
      changed = true;
    }
    double* sum = sums + best * dims;
    for (size_t d = 0; d < dims; ++d) sum[d] += x[d];
    ++counts[best];
  }
  part.changed = changed;
  part.evaluations += evaluations;
}

/// Lloyd's algorithm with Hamerly bounds (see AssignChunk).
KMeansResult LloydOnce(const PointMatrix& points, int k, int max_iterations,
                       bool bounded, Pcg32& rng, int threads) {
  const size_t n = points.rows();
  const size_t dims = points.dims;
  const size_t clusters = static_cast<size_t>(k);
  KMeansResult result;
  std::vector<double> centroids =
      SeedCentroids(points, k, rng, &result.distance_evaluations);
  result.assignments.assign(n, -1);

  std::vector<double> upper(bounded ? n : 0);
  std::vector<double> lower(bounded ? n : 0);
  std::vector<double> previous(bounded ? clusters * dims : 0);
  std::vector<double> moved(clusters, 0.0);
  AssignPass pass{.points = &points,
                  .centroids = centroids.data(),
                  .k = k,
                  .bounded = bounded,
                  .moved = moved.data(),
                  .assignments = result.assignments.data(),
                  .upper = upper.data(),
                  .lower = lower.data()};

  const size_t chunk_count = (n + kPointGrain - 1) / kPointGrain;
  std::vector<ChunkPartial> partials(chunk_count);
  for (ChunkPartial& part : partials) {
    part.sums.resize(clusters * dims);
    part.counts.resize(clusters);
  }
  std::vector<double> sums(clusters * dims);
  std::vector<size_t> counts(clusters);

  for (int iter = 0; iter < max_iterations; ++iter) {
    pass.loosen = bounded && iter > 0;
    // Fused assignment + partial update: each chunk assigns its points
    // (disjoint writes) and accumulates per-cluster sums/counts locally.
    ParallelFor(
        0, n, kPointGrain,
        [&](size_t lo, size_t hi) {
          AssignChunk(pass, lo, hi, partials[lo / kPointGrain]);
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
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (const ChunkPartial& part : partials) {
      for (size_t j = 0; j < clusters * dims; ++j) sums[j] += part.sums[j];
      for (size_t c = 0; c < clusters; ++c) counts[c] += part.counts[c];
    }
    if (bounded) previous = centroids;
    for (size_t c = 0; c < clusters; ++c) {
      double* centroid = centroids.data() + c * dims;
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        const double* seed = points.row(rng.NextBounded(n));
        std::copy(seed, seed + dims, centroid);
        continue;
      }
      for (size_t d = 0; d < dims; ++d) {
        centroid[d] = sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
    if (bounded) {
      pass.farthest = 0;
      pass.max_moved = 0.0;
      pass.second_moved = 0.0;
      for (size_t c = 0; c < clusters; ++c) {
        moved[c] = std::sqrt(SquaredDistance(previous.data() + c * dims,
                                             centroids.data() + c * dims,
                                             dims)) *
                   kGrow;
        if (moved[c] > pass.max_moved) {
          pass.second_moved = pass.max_moved;
          pass.max_moved = moved[c];
          pass.farthest = static_cast<int>(c);
        } else if (moved[c] > pass.second_moved) {
          pass.second_moved = moved[c];
        }
      }
    }
  }

  // Final sizes + residual, again via chunk partials merged in order.
  ParallelFor(
      0, n, kPointGrain,
      [&](size_t lo, size_t hi) {
        ChunkPartial& part = partials[lo / kPointGrain];
        std::fill(part.counts.begin(), part.counts.end(), 0);
        part.residual = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          int c = result.assignments[i];
          ++part.counts[c];
          part.residual += SquaredDistance(
              points.row(i), centroids.data() + c * dims, dims);
        }
      },
      threads);
  result.distance_evaluations += n;
  result.sizes.assign(clusters, 0);
  result.residual_variance = 0.0;
  for (const ChunkPartial& part : partials) {
    for (size_t c = 0; c < clusters; ++c) result.sizes[c] += part.counts[c];
    result.residual_variance += part.residual;
    result.distance_evaluations += part.evaluations;
  }
  result.centroids.reserve(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    result.centroids.emplace_back(centroids.begin() + c * dims,
                                  centroids.begin() + (c + 1) * dims);
  }
  return result;
}

Status ValidatePoints(const PointMatrix& points) {
  if (points.values.empty()) {
    return InvalidArgumentError("k-means requires at least one point");
  }
  if (points.dims == 0) {
    return InvalidArgumentError("points must have dimension > 0");
  }
  if (points.values.size() % points.dims != 0) {
    return InvalidArgumentError("point value count is not a multiple of dims");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<KMeansResult> KMeansFit(const PointMatrix& points, int k,
                                 const KMeansOptions& options) {
  SWIM_RETURN_IF_ERROR(ValidatePoints(points));
  if (k < 1 || static_cast<size_t>(k) > points.rows()) {
    return InvalidArgumentError("k must be in [1, number of points]");
  }
  if (options.max_iterations < 1) {
    return InvalidArgumentError("max_iterations must be >= 1");
  }
  const bool bounded = BoundsAreSound(points);

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
          runs[r] = LloydOnce(points, k, options.max_iterations, bounded, rng,
                              options.threads);
        }
      },
      options.threads);
  // Lowest residual wins; ties break to the lowest restart index.
  uint64_t evaluations = 0;
  for (const KMeansResult& run : runs) evaluations += run.distance_evaluations;
  KMeansResult best;
  best.residual_variance = std::numeric_limits<double>::max();
  for (KMeansResult& run : runs) {
    if (run.residual_variance < best.residual_variance) best = std::move(run);
  }
  best.distance_evaluations = evaluations;
  return best;
}

StatusOr<ChooseKResult> ChooseKByElbow(const PointMatrix& points, int max_k,
                                       double min_improvement,
                                       const KMeansOptions& options) {
  if (max_k < 1) return InvalidArgumentError("max_k must be >= 1");
  // Without this, max_k clamps to 0, the loop never runs, and a default
  // ChooseKResult{k=0} would be returned as success. Match KMeansFit.
  SWIM_RETURN_IF_ERROR(ValidatePoints(points));
  max_k = std::min<int>(max_k, static_cast<int>(points.rows()));

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

ColumnScaling StandardizeColumns(PointMatrix& points) {
  ColumnScaling scaling;
  const size_t rows = points.rows();
  if (rows == 0) return scaling;
  const size_t dims = points.dims;
  scaling.mean.assign(dims, 0.0);
  scaling.stddev.assign(dims, 0.0);
  const double n = static_cast<double>(rows);

  for (size_t i = 0; i < rows; ++i) {
    const double* p = points.row(i);
    for (size_t d = 0; d < dims; ++d) scaling.mean[d] += p[d];
  }
  for (size_t d = 0; d < dims; ++d) scaling.mean[d] /= n;
  for (size_t i = 0; i < rows; ++i) {
    const double* p = points.row(i);
    for (size_t d = 0; d < dims; ++d) {
      double diff = p[d] - scaling.mean[d];
      scaling.stddev[d] += diff * diff;
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    scaling.stddev[d] = std::sqrt(scaling.stddev[d] / n);
  }
  for (size_t i = 0; i < rows; ++i) {
    double* p = points.row(i);
    for (size_t d = 0; d < dims; ++d) {
      p[d] -= scaling.mean[d];
      if (scaling.stddev[d] > 0.0) p[d] /= scaling.stddev[d];
    }
  }
  return scaling;
}

}  // namespace swim::stats
