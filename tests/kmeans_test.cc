#include <cmath>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "stats/kmeans.h"

namespace swim::stats {
namespace {

/// Three well-separated Gaussian blobs in 2D.
std::vector<std::vector<double>> ThreeBlobs(size_t per_blob, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 10}};
  for (int blob = 0; blob < 3; ++blob) {
    for (size_t i = 0; i < per_blob; ++i) {
      points.push_back({centers[blob][0] + 0.5 * rng.NextGaussian(),
                        centers[blob][1] + 0.5 * rng.NextGaussian()});
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
  std::vector<std::vector<double>> points = {{0, 0}, {1, 1}, {2, 2}};
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
  std::vector<std::vector<double>> points = {{1, 2}, {3, 4}};
  EXPECT_FALSE(KMeansFit({}, 1).ok());
  EXPECT_FALSE(KMeansFit(points, 0).ok());
  EXPECT_FALSE(KMeansFit(points, 3).ok());
  std::vector<std::vector<double>> ragged = {{1, 2}, {3}};
  EXPECT_FALSE(KMeansFit(ragged, 1).ok());
  std::vector<std::vector<double>> zero_dim = {{}, {}};
  EXPECT_FALSE(KMeansFit(zero_dim, 1).ok());
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  std::vector<std::vector<double>> points(10, {1.0, 1.0});
  auto result = KMeansFit(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->residual_variance, 0.0, 1e-12);
}

TEST(ChooseKTest, FindsElbowAtThree) {
  auto points = ThreeBlobs(80, 5);
  auto chosen = ChooseKByElbow(points, 8, 0.25);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->k, 3);
}

TEST(ChooseKTest, SingleClusterData) {
  Pcg32 rng(7);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.NextGaussian(), rng.NextGaussian()});
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
  std::vector<std::vector<double>> points = {{1.0}};
  EXPECT_FALSE(ChooseKByElbow(points, 0).ok());
}

TEST(ChooseKTest, RejectsEmptyPoints) {
  // Used to return ChooseKResult{k=0} as success; must fail like KMeansFit.
  std::vector<std::vector<double>> points;
  auto chosen = ChooseKByElbow(points, 4);
  ASSERT_FALSE(chosen.ok());
  EXPECT_FALSE(KMeansFit(points, 1).ok());
}

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  std::vector<std::vector<double>> points = {{1, 100}, {2, 200}, {3, 300}};
  ColumnScaling scaling = StandardizeColumns(points);
  double mean0 = (points[0][0] + points[1][0] + points[2][0]) / 3.0;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(scaling.mean[1], 200.0, 1e-12);
  // Round trip.
  std::vector<double> restored = UnstandardizeRow(points[2], scaling);
  EXPECT_NEAR(restored[0], 3.0, 1e-12);
  EXPECT_NEAR(restored[1], 300.0, 1e-12);
}

TEST(StandardizeTest, ConstantColumnLeftCentered) {
  std::vector<std::vector<double>> points = {{5, 1}, {5, 2}, {5, 3}};
  ColumnScaling scaling = StandardizeColumns(points);
  EXPECT_DOUBLE_EQ(scaling.stddev[0], 0.0);
  for (const auto& p : points) EXPECT_DOUBLE_EQ(p[0], 0.0);
  std::vector<double> restored = UnstandardizeRow(points[0], scaling);
  EXPECT_DOUBLE_EQ(restored[0], 5.0);
}

}  // namespace
}  // namespace swim::stats
