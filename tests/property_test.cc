#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/random.h"
#include "common/units.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "core/synth/scale_down.h"
#include "gtest/gtest.h"
#include "stats/burstiness.h"
#include "stats/empirical_cdf.h"
#include "stats/zipf.h"
#include "storage/cache.h"
#include "workloads/paper_workloads.h"
#include "trace_oracle.h"
#include "workloads/trace_generator.h"

namespace swim {
namespace {

// --- RNG properties across seeds ------------------------------------------

class RngPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngPropertyTest, DoubleAlwaysInUnitInterval) {
  Pcg32 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST_P(RngPropertyTest, BoundedNeverExceedsBound) {
  Pcg32 rng(GetParam());
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST_P(RngPropertyTest, LognormalAlwaysPositive) {
  Pcg32 rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GT(rng.NextLognormal(0.0, 2.0), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngPropertyTest,
                         ::testing::Values(0, 1, 2, 42, 1337, 0xdeadbeef,
                                           0xffffffffffffffffULL));

// --- Empirical CDF properties ------------------------------------------------

class CdfPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CdfPropertyTest, FractionIsMonotoneAndQuantileInverts) {
  Pcg32 rng(GetParam());
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.NextLognormal(5, 2));
  stats::EmpiricalCdf cdf(samples);
  double previous = -1.0;
  for (double x = cdf.min(); x <= cdf.max(); x *= 1.7) {
    double f = cdf.Fraction(x);
    ASSERT_GE(f, previous);
    previous = f;
  }
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double q = cdf.Quantile(p);
    // Quantile must land inside the sample range and invert consistently.
    ASSERT_GE(q, cdf.min());
    ASSERT_LE(q, cdf.max());
    ASSERT_GE(cdf.Fraction(q) + 0.01, p);
  }
}

TEST_P(CdfPropertyTest, KsDistanceIsMetricLike) {
  Pcg32 rng(GetParam());
  std::vector<double> a_samples, b_samples;
  for (int i = 0; i < 300; ++i) {
    a_samples.push_back(rng.NextLognormal(3, 1));
    b_samples.push_back(rng.NextLognormal(4, 1));
  }
  stats::EmpiricalCdf a(a_samples), b(b_samples);
  double d_ab = stats::EmpiricalCdf::KsDistance(a, b);
  double d_ba = stats::EmpiricalCdf::KsDistance(b, a);
  ASSERT_DOUBLE_EQ(d_ab, d_ba);                  // symmetry
  ASSERT_GE(d_ab, 0.0);                          // non-negativity
  ASSERT_LE(d_ab, 1.0);                          // bounded
  ASSERT_DOUBLE_EQ(stats::EmpiricalCdf::KsDistance(a, a), 0.0);  // identity
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfPropertyTest,
                         ::testing::Values(3, 17, 99, 2024));

// --- Zipf sampler: heavier slope concentrates mass ---------------------------

TEST(ZipfPropertyTest, HeavierSlopeMoreConcentrated) {
  double previous_share = 0.0;
  for (double slope : {0.0, 0.5, 1.0, 1.5}) {
    stats::ZipfSampler sampler(1000, slope);
    double top10 = 0.0;
    for (size_t r = 0; r < 10; ++r) top10 += sampler.Pmf(r);
    ASSERT_GE(top10, previous_share);
    previous_share = top10;
  }
}

// --- Cache property: capacity monotonicity ------------------------------------

class CacheCapacityTest : public ::testing::TestWithParam<double> {};

TEST_P(CacheCapacityTest, MoreCapacityNeverHurtsLru) {
  // LRU is a stack algorithm: hit rate is monotone in capacity.
  Pcg32 rng(7);
  std::vector<storage::FileAccess> stream;
  for (int i = 0; i < 3000; ++i) {
    stream.push_back({static_cast<double>(i),
                      "f" + std::to_string(rng.NextBounded(200)), 1000.0,
                      storage::AccessKind::kRead, 0});
  }
  double capacity = GetParam();
  storage::LruCache smaller(capacity);
  storage::LruCache larger(capacity * 2);
  storage::ReplayAccesses(stream, smaller);
  storage::ReplayAccesses(stream, larger);
  EXPECT_GE(larger.stats().hits, smaller.stats().hits);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityTest,
                         ::testing::Values(5e3, 2e4, 5e4, 1e5, 2e5));

// --- Generator invariants across all workloads and seeds ------------------------

class GeneratorPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(GeneratorPropertyTest, StructuralInvariantsHold) {
  auto [name, seed] = GetParam();
  auto spec = workloads::PaperWorkloadByName(name);
  ASSERT_TRUE(spec.ok());
  workloads::GeneratorOptions options;
  options.job_count_override = 1500;
  options.seed = seed;
  auto trace = workloads::GenerateTrace(*spec, options);
  ASSERT_TRUE(trace.ok());

  // Every record passes schema validation.
  ASSERT_TRUE(oracle::ValidateTrace(*trace).ok());
  // Submit times sorted and within span.
  double previous = -1.0;
  for (const auto& job : trace->jobs()) {
    ASSERT_GE(job.submit_time, previous);
    previous = job.submit_time;
    ASSERT_LE(job.submit_time, spec->span_seconds + 1.0);
    // Task-second / task-count consistency.
    if (job.map_task_seconds > 0) {
      ASSERT_GE(job.map_tasks, 1);
    }
    if (job.reduce_task_seconds > 0) {
      ASSERT_GE(job.reduce_tasks, 1);
    }
  }
  // Job ids unique.
  std::vector<uint64_t> ids;
  for (const auto& job : trace->jobs()) ids.push_back(job.job_id);
  std::sort(ids.begin(), ids.end());
  ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsXSeeds, GeneratorPropertyTest,
    ::testing::Combine(::testing::Values("CC-a", "CC-c", "CC-e", "FB-2009",
                                         "FB-2010"),
                       ::testing::Values(1u, 7u, 123u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- Scale-down composition ------------------------------------------------------

class ScaleDownPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ScaleDownPropertyTest, ByteTotalsScaleLinearly) {
  auto spec = workloads::PaperWorkloadByName("CC-b");
  workloads::GeneratorOptions options;
  options.job_count_override = 800;
  auto trace = workloads::GenerateTrace(*spec, options);
  ASSERT_TRUE(trace.ok());
  double factor = GetParam();
  core::ScaleDownOptions scale;
  scale.data_factor = factor;
  auto scaled = core::ScaleDownTrace(*trace, scale);
  ASSERT_TRUE(scaled.ok());
  double before = 0, after = 0;
  for (const auto& j : trace->jobs()) before += j.TotalBytes();
  for (const auto& j : scaled->jobs()) after += j.TotalBytes();
  EXPECT_NEAR(after, before * factor, before * factor * 1e-9);
  EXPECT_TRUE(oracle::ValidateTrace(*scaled).ok());
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaleDownPropertyTest,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0));

// --- Analysis invariants on generated workloads ------------------------------------

TEST(AnalysisPropertyTest, ReaccessFractionsAreProbabilities) {
  for (const char* name : {"CC-b", "CC-c", "CC-d", "CC-e", "FB-2010"}) {
    auto spec = workloads::PaperWorkloadByName(name);
    workloads::GeneratorOptions options;
    options.job_count_override = 2000;
    auto trace = workloads::GenerateTrace(*spec, options);
    ASSERT_TRUE(trace.ok());
    auto fractions = core::ComputeReaccessFractions(*trace);
    EXPECT_GE(fractions.input_reaccess, 0.0);
    EXPECT_GE(fractions.output_reaccess, 0.0);
    EXPECT_LE(fractions.input_reaccess + fractions.output_reaccess, 1.0);
  }
}

TEST(AnalysisPropertyTest, BurstinessCurvePassesThroughMedian) {
  auto spec = workloads::PaperWorkloadByName("CC-d");
  workloads::GeneratorOptions options;
  options.job_count_override = 5000;
  auto trace = workloads::GenerateTrace(*spec, options);
  ASSERT_TRUE(trace.ok());
  auto burstiness = core::ComputeBurstiness(*trace);
  if (!burstiness.jobs.empty()) {
    EXPECT_NEAR(burstiness.jobs.RatioAtPercentile(50), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace swim
