#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "stats/kmeans.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim {
namespace {

// --- ParallelFor / Submit mechanics ------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<int> hits(kN, 0);
  ParallelFor(
      0, kN, 64,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ++hits[i];
      },
      4);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 8, [&](size_t, size_t) { ++calls; }, 4);
  ParallelFor(7, 3, 8, [&](size_t, size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  std::vector<std::pair<size_t, size_t>> chunks;
  std::mutex mu;
  ParallelFor(
      10, 17, 1000,
      [&](size_t lo, size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      4);
  ASSERT_EQ(chunks.size(), 1u);
  const std::pair<size_t, size_t> whole_range(10, 17);
  EXPECT_EQ(chunks[0], whole_range);
}

TEST(ParallelForTest, ZeroGrainTreatedAsOne) {
  std::atomic<size_t> total{0};
  ParallelFor(0, 100, 0, [&](size_t lo, size_t hi) { total += hi - lo; }, 2);
  EXPECT_EQ(total.load(), 100u);
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  auto boundaries = [](int threads) {
    std::set<std::pair<size_t, size_t>> chunks;
    std::mutex mu;
    ParallelFor(
        3, 1003, 64,
        [&](size_t lo, size_t hi) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace(lo, hi);
        },
        threads);
    return chunks;
  };
  auto serial = boundaries(1);
  EXPECT_EQ(serial, boundaries(2));
  EXPECT_EQ(serial, boundaries(8));
  EXPECT_EQ(serial.size(), (1000u + 63) / 64);
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      ParallelFor(
          0, 1000, 10,
          [&](size_t lo, size_t) {
            if (lo >= 500) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // Serial path too.
  EXPECT_THROW(
      ParallelFor(
          0, 10, 1, [&](size_t, size_t) { throw std::runtime_error("boom"); },
          1),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::atomic<size_t> total{0};
  ParallelFor(
      0, 16, 1,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          ParallelFor(
              0, 100, 7, [&](size_t a, size_t b) { total += b - a; }, 4);
        }
      },
      4);
  EXPECT_EQ(total.load(), 1600u);
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(RunConcurrentlyTest, RunsEveryTaskOnce) {
  std::vector<int> ran(20, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back([&ran, i]() { ++ran[i]; });
  RunConcurrently(tasks, 4);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ran[i], 1);
}

TEST(ParallelismTest, ResolveAndEnvOverride) {
  EXPECT_GE(DefaultParallelism(), 1);
  EXPECT_EQ(ResolveParallelism(5), 5);
  EXPECT_EQ(ResolveParallelism(0), DefaultParallelism());
  EXPECT_EQ(ResolveParallelism(kMaxParallelism + 100), kMaxParallelism);

  const char* old = std::getenv("SWIM_THREADS");
  std::string saved = old ? old : "";
  ::setenv("SWIM_THREADS", "3", 1);
  EXPECT_EQ(DefaultParallelism(), 3);
  ::setenv("SWIM_THREADS", "not-a-number", 1);
  EXPECT_GE(DefaultParallelism(), 1);  // falls back to hardware
  if (old) {
    ::setenv("SWIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SWIM_THREADS");
  }
}

// --- Determinism: identical results at 1 vs N threads -------------------

trace::Trace TestTrace(size_t jobs) {
  auto spec = workloads::PaperWorkloadByName("FB-2009");
  EXPECT_TRUE(spec.ok());
  workloads::GeneratorOptions options;
  options.seed = 42;
  options.job_count_override = jobs;
  auto trace = workloads::GenerateTrace(*spec, options);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

TEST(ParallelDeterminismTest, AnalyzeWorkloadMatchesSerial) {
  trace::Trace trace = TestTrace(3000);
  core::AnalysisOptions serial;
  serial.threads = 1;
  auto a = core::AnalyzeWorkload(trace, serial);
  ASSERT_TRUE(a.ok());
  for (int threads : {2, 8}) {
    core::AnalysisOptions parallel;
    parallel.threads = threads;
    auto b = core::AnalyzeWorkload(trace, parallel);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(core::FormatReport(*a), core::FormatReport(*b))
        << "threads=" << threads;
    // Spot-check raw doubles bit-exactly, beyond the formatted rendering.
    EXPECT_EQ(a->correlations.jobs_bytes, b->correlations.jobs_bytes);
    EXPECT_EQ(a->correlations.bytes_task_seconds,
              b->correlations.bytes_task_seconds);
    EXPECT_EQ(a->diurnal_strength, b->diurnal_strength);
    EXPECT_EQ(a->burstiness.jobs.PeakToMedian(),
              b->burstiness.jobs.PeakToMedian());
    EXPECT_EQ(a->classes.k, b->classes.k);
    EXPECT_EQ(a->classes.largest_class_fraction,
              b->classes.largest_class_fraction);
    EXPECT_EQ(a->classes.elbow_residuals, b->classes.elbow_residuals);
  }
}

TEST(ParallelDeterminismTest, KMeansFitMatchesSerial) {
  // > kPointGrain points so the assignment pass really chunks.
  Pcg32 rng(7);
  stats::PointMatrix points;
  points.dims = 3;
  const double centers[4][3] = {
      {0, 0, 0}, {10, 0, 5}, {0, 12, -4}, {-8, -8, 8}};
  for (int blob = 0; blob < 4; ++blob) {
    for (int i = 0; i < 1500; ++i) {
      for (int d = 0; d < 3; ++d) {
        points.values.push_back(centers[blob][d] + rng.NextGaussian());
      }
    }
  }
  stats::KMeansOptions serial;
  serial.seed = 99;
  serial.restarts = 4;
  serial.threads = 1;
  auto a = stats::KMeansFit(points, 4, serial);
  ASSERT_TRUE(a.ok());
  for (int threads : {2, 8}) {
    stats::KMeansOptions parallel = serial;
    parallel.threads = threads;
    auto b = stats::KMeansFit(points, 4, parallel);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->centroids, b->centroids) << "threads=" << threads;
    EXPECT_EQ(a->assignments, b->assignments);
    EXPECT_EQ(a->sizes, b->sizes);
    EXPECT_EQ(a->residual_variance, b->residual_variance);
    EXPECT_EQ(a->iterations, b->iterations);
    EXPECT_EQ(a->converged, b->converged);
    EXPECT_EQ(a->distance_evaluations, b->distance_evaluations);
  }
}

TEST(ParallelDeterminismTest, TraceFromCsvMatchesSerial) {
  trace::Trace trace = TestTrace(9000);  // > kShardLines, spans 3 shards
  trace.mutable_metadata().name = "det-test";
  trace.mutable_metadata().machines = 600;
  std::string csv = trace::TraceToCsv(trace);
  auto a = trace::TraceFromCsv(csv, 1);
  ASSERT_TRUE(a.ok());
  for (int threads : {2, 8}) {
    auto b = trace::TraceFromCsv(csv, threads);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->jobs(), b->jobs()) << "threads=" << threads;
    EXPECT_EQ(a->metadata().name, b->metadata().name);
    EXPECT_EQ(a->metadata().machines, b->metadata().machines);
  }
  EXPECT_EQ(a->size(), trace.size());
}

TEST(ParallelDeterminismTest, CsvErrorLineNumbersMatchSerial) {
  // Build a CSV whose single malformed row sits deep in the second shard,
  // then check every thread count reports exactly the same line.
  std::string csv = std::string(trace::kTraceCsvHeader) + "\n";
  const std::string good = "1,n,0,1,5,0,1,1,0,1,0,a,b\n";
  const int kRows = 9000;
  const int kBadRow = 6543;
  for (int i = 0; i < kRows; ++i) {
    if (i == kBadRow) {
      csv += "1,n,zero,1,5,0,1,1,0,1,0,a,b\n";
    } else {
      csv += good;
    }
  }
  auto serial = trace::TraceFromCsv(csv, 1);
  ASSERT_FALSE(serial.ok());
  const std::string expected_line =
      "line " + std::to_string(kBadRow + 2);  // +1 header, +1 one-based
  EXPECT_NE(serial.status().message().find(expected_line), std::string::npos)
      << serial.status().message();
  for (int threads : {2, 8}) {
    auto parallel = trace::TraceFromCsv(csv, threads);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(serial.status().message(), parallel.status().message())
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, QuotedFieldsSurviveShardedParse) {
  trace::Trace trace;
  for (int i = 0; i < 200; ++i) {
    trace::JobRecord job;
    job.job_id = i + 1;
    job.name = "INSERT \"t" + std::to_string(i) + "\", partition=a,b";
    job.submit_time = i;
    job.duration = 10;
    job.input_bytes = 100;
    job.map_tasks = 1;
    job.map_task_seconds = 5;
    job.input_path = "in,quoted/" + std::to_string(i);
    job.output_path = "out";
    trace.AddJob(job);
  }
  std::string csv = trace::TraceToCsv(trace);
  auto a = trace::TraceFromCsv(csv, 1);
  auto b = trace::TraceFromCsv(csv, 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->jobs(), b->jobs());
  EXPECT_EQ(a->jobs(), trace.jobs());
}

}  // namespace
}  // namespace swim
