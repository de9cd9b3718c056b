#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "stats/kmeans.h"

namespace swim::stats {
namespace {

using Rows = std::vector<std::vector<double>>;

PointMatrix FromRows(const Rows& rows) {
  PointMatrix points;
  points.dims = rows.empty() ? 0 : rows[0].size();
  for (const auto& row : rows) {
    points.values.insert(points.values.end(), row.begin(), row.end());
  }
  return points;
}

Rows ToRows(const PointMatrix& points) {
  Rows rows;
  for (size_t i = 0; i < points.rows(); ++i) {
    rows.emplace_back(points.row(i), points.row(i) + points.dims);
  }
  return rows;
}

/// Inverse of StandardizeColumns for a single row.
std::vector<double> UnstandardizeRow(const double* row,
                                     const ColumnScaling& scaling) {
  std::vector<double> result(scaling.mean.size());
  for (size_t d = 0; d < result.size(); ++d) {
    double scale = scaling.stddev[d] > 0.0 ? scaling.stddev[d] : 1.0;
    result[d] = row[d] * scale + scaling.mean[d];
  }
  return result;
}

// --- Oracle: plain Lloyd over per-point vectors ----------------------------
//
// The k-means kernel as it ran before the row-major matrix and the bounds,
// kept verbatim as the reference the bounded kernel must match bit for bit.
namespace oracle {

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

std::vector<std::vector<double>> SeedCentroids(const Rows& points, int k,
                                               Pcg32& rng) {
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

struct ChunkPartial {
  std::vector<std::vector<double>> sums;
  std::vector<size_t> counts;
  bool changed = false;
  double residual = 0.0;
};

KMeansResult LloydOnce(const Rows& points, int k, int max_iterations,
                       Pcg32& rng, int threads) {
  const size_t dims = points[0].size();
  KMeansResult result;
  result.centroids = SeedCentroids(points, k, rng);
  result.assignments.assign(points.size(), -1);

  const size_t chunk_count = (points.size() + kPointGrain - 1) / kPointGrain;
  std::vector<ChunkPartial> partials(chunk_count);

  for (int iter = 0; iter < max_iterations; ++iter) {
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
        result.centroids[c] = points[rng.NextBounded(points.size())];
        continue;
      }
      for (size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }

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
  // Plain Lloyd's work: seeding, k distances per point per iteration, and
  // the residual pass.
  const uint64_t n = points.size();
  result.distance_evaluations =
      n * (k - 1) + n * k * static_cast<uint64_t>(result.iterations) + n;
  return result;
}

KMeansResult Fit(const Rows& points, int k, const KMeansOptions& options) {
  const int restarts = std::max(1, options.restarts);
  uint64_t evaluations = 0;
  KMeansResult best;
  best.residual_variance = std::numeric_limits<double>::max();
  for (int r = 0; r < restarts; ++r) {
    Pcg32 rng(options.seed + r, /*stream=*/17);
    KMeansResult run = LloydOnce(points, k, options.max_iterations, rng,
                                 options.threads);
    evaluations += run.distance_evaluations;
    if (run.residual_variance < best.residual_variance) best = std::move(run);
  }
  best.distance_evaluations = evaluations;
  return best;
}

ChooseKResult ChooseKByElbow(const Rows& points, int max_k,
                             double min_improvement,
                             const KMeansOptions& options) {
  max_k = std::min<int>(max_k, static_cast<int>(points.size()));
  ChooseKResult chosen;
  double total_variance = 0.0;
  double previous = 0.0;
  for (int k = 1; k <= max_k; ++k) {
    KMeansResult run = Fit(points, k, options);
    chosen.residuals.push_back(run.residual_variance);
    if (k == 1) {
      chosen.k = 1;
      total_variance = run.residual_variance;
      previous = run.residual_variance;
      chosen.fit = std::move(run);
      if (total_variance <= 1e-12) break;
      continue;
    }
    double improvement = (previous - run.residual_variance) / total_variance;
    if (improvement < min_improvement) break;
    chosen.k = k;
    previous = run.residual_variance;
    chosen.fit = std::move(run);
    if (previous <= 1e-12) break;
  }
  return chosen;
}

}  // namespace oracle

/// Three well-separated Gaussian blobs in 2D.
PointMatrix ThreeBlobs(size_t per_blob, uint64_t seed) {
  Pcg32 rng(seed);
  PointMatrix points;
  points.dims = 2;
  const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 10}};
  for (int blob = 0; blob < 3; ++blob) {
    for (size_t i = 0; i < per_blob; ++i) {
      points.values.push_back(centers[blob][0] + 0.5 * rng.NextGaussian());
      points.values.push_back(centers[blob][1] + 0.5 * rng.NextGaussian());
    }
  }
  return points;
}

TEST(KMeansTest, RecoversThreeBlobs) {
  auto points = ThreeBlobs(100, 1);
  auto result = KMeansFit(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 3u);
  // Every blob should map to exactly one cluster of size 100.
  std::vector<size_t> sizes = result->sizes;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes[0], 100u);
  EXPECT_EQ(sizes[1], 100u);
  EXPECT_EQ(sizes[2], 100u);
  EXPECT_TRUE(result->converged);
}

TEST(KMeansTest, ResidualDecreasesWithK) {
  auto points = ThreeBlobs(50, 2);
  double previous = -1.0;
  for (int k = 1; k <= 4; ++k) {
    auto result = KMeansFit(points, k);
    ASSERT_TRUE(result.ok());
    if (previous >= 0.0) {
      EXPECT_LE(result->residual_variance, previous + 1e-9);
    }
    previous = result->residual_variance;
  }
}

TEST(KMeansTest, KEqualsNGivesZeroResidual) {
  PointMatrix points = FromRows({{0, 0}, {1, 1}, {2, 2}});
  auto result = KMeansFit(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->residual_variance, 0.0, 1e-12);
}

TEST(KMeansTest, DeterministicForSameSeed) {
  auto points = ThreeBlobs(40, 3);
  KMeansOptions options;
  options.seed = 99;
  auto a = KMeansFit(points, 3, options);
  auto b = KMeansFit(points, 3, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_EQ(a->residual_variance, b->residual_variance);
}

TEST(KMeansTest, RejectsBadArguments) {
  PointMatrix points = FromRows({{1, 2}, {3, 4}});
  EXPECT_FALSE(KMeansFit(PointMatrix{}, 1).ok());
  EXPECT_FALSE(KMeansFit(points, 0).ok());
  EXPECT_FALSE(KMeansFit(points, 3).ok());
  // A value count that is not a multiple of dims: a ragged last row.
  PointMatrix ragged{2, {1, 2, 3}};
  auto ragged_fit = KMeansFit(ragged, 1);
  ASSERT_FALSE(ragged_fit.ok());
  EXPECT_EQ(ragged_fit.status().code(), StatusCode::kInvalidArgument);
  PointMatrix zero_dim{0, {1, 2}};
  EXPECT_FALSE(KMeansFit(zero_dim, 1).ok());
  // With no iteration no point is ever assigned, and the residual pass
  // would read centroid -1.
  for (int max_iterations : {0, -1}) {
    KMeansOptions options;
    options.max_iterations = max_iterations;
    auto fit = KMeansFit(points, 1, options);
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(fit.status().message().find("max_iterations"),
              std::string::npos);
    auto chosen = ChooseKByElbow(points, 2, 0.1, options);
    ASSERT_FALSE(chosen.ok());
    EXPECT_EQ(chosen.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(chosen.status().message().find("max_iterations"),
              std::string::npos);
  }
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  PointMatrix points = FromRows(Rows(10, {1.0, 1.0}));
  auto result = KMeansFit(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->residual_variance, 0.0, 1e-12);
}

TEST(KMeansTest, BoundsSkipDistanceWork) {
  const PointMatrix points = ThreeBlobs(1000, 4);
  KMeansOptions options;
  options.restarts = 1;
  options.seed = 5;
  const int k = 4;
  auto fit = KMeansFit(points, k, options);
  ASSERT_TRUE(fit.ok());
  const uint64_t n = points.rows();
  const uint64_t plain = n * (k - 1) +
                         n * k * static_cast<uint64_t>(fit->iterations) + n;
  EXPECT_GT(fit->iterations, 1);
  EXPECT_LT(fit->distance_evaluations, plain);
  // Seeding, the first full pass and the residual pass are never skipped.
  EXPECT_GE(fit->distance_evaluations, n * (k - 1) + n * k + n);
}

TEST(ChooseKTest, FindsElbowAtThree) {
  auto points = ThreeBlobs(80, 5);
  auto chosen = ChooseKByElbow(points, 8, 0.25);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->k, 3);
}

TEST(ChooseKTest, SingleClusterData) {
  Pcg32 rng(7);
  PointMatrix points;
  points.dims = 2;
  for (int i = 0; i < 100; ++i) {
    points.values.push_back(rng.NextGaussian());
    points.values.push_back(rng.NextGaussian());
  }
  auto chosen = ChooseKByElbow(points, 6, 0.5);
  ASSERT_TRUE(chosen.ok());
  EXPECT_LE(chosen->k, 2);
}

/// Bit-for-bit equality of two fits.
void ExpectSameFit(const KMeansResult& a, const KMeansResult& b) {
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.residual_variance, b.residual_variance);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(ChooseKTest, ReturnsTheFitForTheChosenK) {
  // The search's own fit at the chosen k must be exactly what a separate
  // KMeansFit would produce, at any thread count, whether the search stops
  // on the elbow rule, at max_k, or at k = 1.
  struct Case {
    int max_k;
    double min_improvement;
  };
  const auto points = ThreeBlobs(60, 11);
  for (const Case& c : {Case{8, 0.25}, Case{2, 0.01}, Case{6, 0.99}}) {
    for (int threads : {1, 4}) {
      KMeansOptions options;
      options.seed = 3;
      options.threads = threads;
      auto chosen = ChooseKByElbow(points, c.max_k, c.min_improvement, options);
      ASSERT_TRUE(chosen.ok());
      auto refit = KMeansFit(points, chosen->k, options);
      ASSERT_TRUE(refit.ok());
      ExpectSameFit(chosen->fit, *refit);
      EXPECT_EQ(chosen->fit.residual_variance,
                chosen->residuals[static_cast<size_t>(chosen->k) - 1]);
    }
  }
}

TEST(ChooseKTest, RejectsBadMaxK) {
  PointMatrix points{1, {1.0}};
  EXPECT_FALSE(ChooseKByElbow(points, 0).ok());
}

TEST(ChooseKTest, RejectsEmptyPoints) {
  // Used to return ChooseKResult{k=0} as success; must fail like KMeansFit.
  PointMatrix points;
  auto chosen = ChooseKByElbow(points, 4);
  ASSERT_FALSE(chosen.ok());
  EXPECT_FALSE(KMeansFit(points, 1).ok());
}

// --- The bounded kernel against the oracle ---------------------------------

enum class Shape {
  kBlobs,       // Gaussian clusters: continuous values, few ties
  kGrid,        // integer coordinates in [0, 4): exact distance ties
  kDuplicates,  // three distinct points repeated: empty-cluster reseeds
};

Rows MakePoints(Shape shape, size_t n, size_t dims, Pcg32& rng) {
  Rows points(n, std::vector<double>(dims));
  std::vector<std::vector<double>> centers(3, std::vector<double>(dims));
  for (auto& center : centers) {
    for (double& x : center) x = 20.0 * rng.NextDouble() - 10.0;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& center = centers[rng.NextBounded(centers.size())];
    for (size_t d = 0; d < dims; ++d) {
      switch (shape) {
        case Shape::kBlobs:
          points[i][d] = center[d] + rng.NextGaussian();
          break;
        case Shape::kGrid:
          points[i][d] = static_cast<double>(rng.NextBounded(4));
          break;
        case Shape::kDuplicates:
          points[i][d] = center[d];
          break;
      }
    }
  }
  return points;
}

TEST(KMeansOracleTest, BoundedLloydMatchesPlainLloydBitForBit) {
  struct Config {
    Shape shape;
    size_t n;
    size_t dims;
    int k;
  };
  std::vector<Config> configs;
  Pcg32 draw(2012);
  const size_t sizes[] = {1, 2, 7, 40, 300, 2049, 5000};
  for (size_t c = 0; c < 36; ++c) {
    const Shape shape = static_cast<Shape>(c % 3);
    const size_t dims = 1 + c % 9;
    const size_t n = sizes[draw.NextBounded(std::size(sizes))];
    const int k_max = static_cast<int>(std::min<size_t>(n, 12));
    configs.push_back(
        {shape, n, dims, 1 + static_cast<int>(draw.NextBounded(k_max))});
  }
  // k = n, with and without duplicate points.
  configs.push_back({Shape::kBlobs, 9, 3, 9});
  configs.push_back({Shape::kGrid, 12, 2, 12});
  configs.push_back({Shape::kDuplicates, 6, 4, 6});

  size_t case_index = 0;
  for (const Config& config : configs) {
    Pcg32 rng(100 + case_index++);
    const Rows rows = MakePoints(config.shape, config.n, config.dims, rng);
    const PointMatrix points = FromRows(rows);
    KMeansOptions options;
    options.seed = case_index;
    options.threads = 1;
    const KMeansResult expected = oracle::Fit(rows, config.k, options);
    const ChooseKResult expected_k =
        oracle::ChooseKByElbow(rows, config.k, 0.02, options);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("shape=" + std::to_string(static_cast<int>(config.shape)) +
                   " n=" + std::to_string(config.n) +
                   " dims=" + std::to_string(config.dims) +
                   " k=" + std::to_string(config.k) +
                   " threads=" + std::to_string(threads));
      options.threads = threads;
      auto fit = KMeansFit(points, config.k, options);
      ASSERT_TRUE(fit.ok()) << fit.status();
      ExpectSameFit(*fit, expected);
      EXPECT_LE(fit->distance_evaluations, expected.distance_evaluations);

      auto chosen = ChooseKByElbow(points, config.k, 0.02, options);
      ASSERT_TRUE(chosen.ok()) << chosen.status();
      EXPECT_EQ(chosen->k, expected_k.k);
      EXPECT_EQ(chosen->residuals, expected_k.residuals);
      ExpectSameFit(chosen->fit, expected_k.fit);
    }
  }
}

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  PointMatrix points = FromRows({{1, 100}, {2, 200}, {3, 300}});
  ColumnScaling scaling = StandardizeColumns(points);
  const Rows rows = ToRows(points);
  double mean0 = (rows[0][0] + rows[1][0] + rows[2][0]) / 3.0;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(scaling.mean[1], 200.0, 1e-12);
  // Round trip.
  std::vector<double> restored = UnstandardizeRow(points.row(2), scaling);
  EXPECT_NEAR(restored[0], 3.0, 1e-12);
  EXPECT_NEAR(restored[1], 300.0, 1e-12);
}

TEST(StandardizeTest, ConstantColumnLeftCentered) {
  PointMatrix points = FromRows({{5, 1}, {5, 2}, {5, 3}});
  ColumnScaling scaling = StandardizeColumns(points);
  EXPECT_DOUBLE_EQ(scaling.stddev[0], 0.0);
  for (const auto& p : ToRows(points)) EXPECT_DOUBLE_EQ(p[0], 0.0);
  std::vector<double> restored = UnstandardizeRow(points.row(0), scaling);
  EXPECT_DOUBLE_EQ(restored[0], 5.0);
}

}  // namespace
}  // namespace swim::stats
