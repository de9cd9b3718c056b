#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"
#include "common/random.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "stats/kmeans.h"
#include "stats/sampling.h"
#include "storage/access_stream.h"
#include "trace/trace.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim::core {
namespace {

trace::JobRecord MakeJob(uint64_t id, double submit, double input,
                         double shuffle, double output,
                         const std::string& name = "",
                         const std::string& in_path = "",
                         const std::string& out_path = "") {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = 60;
  job.input_bytes = input;
  job.shuffle_bytes = shuffle;
  job.output_bytes = output;
  job.map_tasks = 1;
  job.map_task_seconds = input / 1e6 + 1;
  if (shuffle > 0) {
    job.reduce_tasks = 1;
    job.reduce_task_seconds = shuffle / 1e6 + 1;
  }
  job.name = name;
  job.input_path = in_path;
  job.output_path = out_path;
  return job;
}

// --- Data sizes (Figure 1) --------------------------------------------------

TEST(DataSizeTest, MediansMatchConstruction) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 100, 0, 10));
  t.AddJob(MakeJob(2, 10, 200, 50, 20));
  t.AddJob(MakeJob(3, 20, 300, 100, 30));
  DataSizeCdfs cdfs = ComputeDataSizeCdfs(t);
  EXPECT_DOUBLE_EQ(cdfs.input.median(), 200.0);
  EXPECT_DOUBLE_EQ(cdfs.shuffle.median(), 50.0);
  EXPECT_DOUBLE_EQ(cdfs.output.median(), 20.0);
  EXPECT_EQ(cdfs.input.size(), 3u);
}

// --- File popularity (Figure 2) ------------------------------------------------

TEST(PopularityTest, CountsAccessesPerPath) {
  trace::Trace t;
  for (int i = 0; i < 6; ++i) {
    t.AddJob(MakeJob(i + 1, i * 10, 100, 0, 10, "", "in/hot", "out/x"));
  }
  t.AddJob(MakeJob(7, 100, 100, 0, 10, "", "in/cold", "out/y"));
  FilePopularity pop = ComputeInputPopularity(t);
  EXPECT_EQ(pop.distinct_files, 2u);
  EXPECT_EQ(pop.total_accesses, 7u);
  EXPECT_DOUBLE_EQ(pop.frequencies[0], 6.0);
  EXPECT_DOUBLE_EQ(pop.frequencies[1], 1.0);
}

TEST(PopularityTest, EmptyWhenNoPaths) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  FilePopularity pop = ComputeInputPopularity(t);
  EXPECT_EQ(pop.distinct_files, 0u);
  EXPECT_EQ(ComputeOutputPopularity(t).distinct_files, 0u);
}

// --- Size skew (Figures 3/4) -----------------------------------------------------

TEST(SizeSkewTest, CurveSeparatesJobsFromBytes) {
  trace::Trace t;
  // 9 jobs on a tiny file, 1 job on a huge file.
  for (int i = 0; i < 9; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1 * kMB, 0, 0, "", "in/small", ""));
  }
  t.AddJob(MakeJob(10, 100, 1 * kTB, 0, 0, "", "in/huge", ""));
  SizeSkewCurve curve = ComputeSizeSkew(t, /*use_output=*/false);
  ASSERT_FALSE(curve.points.empty());
  EXPECT_EQ(curve.jobs_with_paths, 10u);
  EXPECT_NEAR(curve.total_stored_bytes, 1 * kTB + 1 * kMB, 1e3);
  // At 1 GB: 90% of jobs but ~0% of stored bytes - the paper's skew.
  SizeSkewPoint at_gb;
  for (const auto& p : curve.points) {
    if (p.file_bytes <= 1 * kGB) at_gb = p;
  }
  EXPECT_NEAR(at_gb.fraction_of_jobs, 0.9, 0.01);
  EXPECT_LT(at_gb.fraction_of_stored_bytes, 0.01);
}

TEST(SizeSkewTest, EightyXRule) {
  trace::Trace t;
  // Hot file: 80 accesses, 1 GB. Cold files: 20 accesses, 10 GB each.
  for (int i = 0; i < 80; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1 * kGB, 0, 0, "", "in/hot", ""));
  }
  for (int i = 0; i < 20; ++i) {
    t.AddJob(MakeJob(100 + i, 100 + i, 10 * kGB, 0, 0, "",
                     "in/cold" + std::to_string(i), ""));
  }
  double fraction =
      StoredBytesFractionForJobCoverage(t, 0.8, /*use_output=*/false);
  // 80% of accesses covered by the hot file = 1 GB of 201 GB stored.
  EXPECT_NEAR(fraction, 1.0 / 201.0, 0.001);
}

// --- Re-access (Figures 5/6) --------------------------------------------------------

TEST(ReaccessTest, IntervalsBetweenReads) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "", "in/a", ""));
  t.AddJob(MakeJob(2, 100, 1, 0, 1, "", "in/a", ""));
  t.AddJob(MakeJob(3, 700, 1, 0, 1, "", "in/a", ""));
  ReaccessIntervals intervals = ComputeReaccessIntervals(t);
  ASSERT_EQ(intervals.input_input.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals.input_input.min(), 100.0);
  EXPECT_DOUBLE_EQ(intervals.input_input.max(), 600.0);
}

TEST(ReaccessTest, OutputToInputChain) {
  trace::Trace t;
  // Job 1 writes out/x at t=60 (submit 0 + duration 60); job 2 reads it at
  // t=360.
  t.AddJob(MakeJob(1, 0, 1, 0, 100, "", "in/seed", "out/x"));
  t.AddJob(MakeJob(2, 360, 100, 0, 1, "", "out/x", ""));
  ReaccessIntervals intervals = ComputeReaccessIntervals(t);
  ASSERT_EQ(intervals.output_input.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals.output_input.min(), 300.0);
}

TEST(ReaccessTest, FractionsCountProvenance) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "", "in/a", "out/x"));   // fresh
  t.AddJob(MakeJob(2, 100, 1, 0, 1, "", "in/a", ""));      // input re-access
  t.AddJob(MakeJob(3, 200, 1, 0, 1, "", "out/x", ""));     // output re-access
  t.AddJob(MakeJob(4, 300, 1, 0, 1, "", "in/b", ""));      // fresh
  ReaccessFractions fractions = ComputeReaccessFractions(t);
  EXPECT_EQ(fractions.jobs_with_paths, 4u);
  EXPECT_DOUBLE_EQ(fractions.input_reaccess, 0.25);
  EXPECT_DOUBLE_EQ(fractions.output_reaccess, 0.25);
}

TEST(ReaccessTest, NoPathsMeansZero) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  ReaccessFractions fractions = ComputeReaccessFractions(t);
  EXPECT_EQ(fractions.jobs_with_paths, 0u);
  EXPECT_EQ(fractions.input_reaccess, 0.0);
}

/// Test-local reference for the re-access scan: materializes the merged
/// access stream with storage::ExtractAccesses (reads at submit, writes at
/// finish, stable-sorted by time) and walks it chronologically.
struct ReferenceReaccess {
  std::vector<double> input_input;
  std::vector<double> output_input;
  ReaccessFractions fractions;
  size_t tied_read_writes = 0;  // adjacent read/write pairs at one time
};

ReferenceReaccess ReferenceReaccessScan(const trace::Trace& trace) {
  ReferenceReaccess result;
  const size_t path_count = trace.paths().size();
  std::vector<double> last_read(path_count, -1.0);
  std::vector<double> last_written(path_count, -1.0);
  std::vector<uint8_t> seen_inputs(path_count, 0);
  std::vector<uint8_t> seen_outputs(path_count, 0);
  size_t input_hits = 0;
  size_t output_hits = 0;
  const std::vector<storage::FileAccess> accesses =
      storage::ExtractAccesses(trace);
  for (size_t i = 0; i < accesses.size(); ++i) {
    const storage::FileAccess& access = accesses[i];
    if (i > 0 && accesses[i - 1].time == access.time &&
        accesses[i - 1].kind != access.kind) {
      ++result.tied_read_writes;
    }
    uint32_t id = access.path_id;
    if (access.kind == storage::AccessKind::kRead) {
      ++result.fractions.jobs_with_paths;
      if (seen_outputs[id]) {
        ++output_hits;
      } else if (seen_inputs[id]) {
        ++input_hits;
      }
      seen_inputs[id] = 1;
      if (last_read[id] >= 0.0) {
        result.input_input.push_back(access.time - last_read[id]);
      }
      if (last_written[id] >= 0.0) {
        double interval = access.time - last_written[id];
        if (interval >= 0.0) result.output_input.push_back(interval);
      }
      last_read[id] = access.time;
    } else {
      seen_outputs[id] = 1;
      last_written[id] = access.time;
    }
  }
  const double reads = static_cast<double>(result.fractions.jobs_with_paths);
  if (reads > 0) {
    result.fractions.input_reaccess = static_cast<double>(input_hits) / reads;
    result.fractions.output_reaccess = static_cast<double>(output_hits) / reads;
  }
  std::sort(result.input_input.begin(), result.input_input.end());
  std::sort(result.output_input.begin(), result.output_input.end());
  return result;
}

/// Seeded trace on a coarse 10 s clock over a small path pool: submits tie,
/// zero-duration jobs finish at their own submit, finishes tie with later
/// submits, outputs are read back later, and some jobs read and write the
/// same path.
trace::Trace RandomReaccessTrace(uint64_t seed, size_t jobs) {
  Pcg32 rng(seed);
  trace::Trace t;
  double submit = 0.0;
  for (size_t i = 0; i < jobs; ++i) {
    if (rng.NextBounded(3) == 0) submit += 10.0 * rng.NextBounded(4);
    trace::JobRecord job = MakeJob(i + 1, submit, 1, 0, 1);
    job.duration = 10.0 * static_cast<double>(rng.NextBounded(5));
    auto path = [&]() { return "p/" + std::to_string(rng.NextBounded(40)); };
    const uint64_t kind = rng.NextBounded(8);
    if (kind != 0) job.input_path = path();
    if (kind == 1) {
      job.output_path = job.input_path;
    } else if (kind >= 4) {
      job.output_path = path();
    }
    t.AddJob(job);
  }
  return t;
}

TEST(ReaccessTest, ScanMatchesExtractAccessesReference) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    const trace::Trace t = RandomReaccessTrace(seed, 3000);
    const ReferenceReaccess reference = ReferenceReaccessScan(t);
    ASSERT_GT(reference.tied_read_writes, 0u);
    ASSERT_FALSE(reference.output_input.empty());

    const ReaccessFractions fractions = ComputeReaccessFractions(t);
    EXPECT_EQ(fractions.jobs_with_paths, reference.fractions.jobs_with_paths);
    EXPECT_EQ(fractions.input_reaccess, reference.fractions.input_reaccess);
    EXPECT_EQ(fractions.output_reaccess, reference.fractions.output_reaccess);

    const ReaccessIntervals intervals = ComputeReaccessIntervals(t);
    EXPECT_EQ(intervals.input_input.sorted_samples(), reference.input_input);
    EXPECT_EQ(intervals.output_input.sorted_samples(),
              reference.output_input);

    // AnalyzeWorkload drives the same scan inside its combined exact pass.
    auto report = AnalyzeWorkload(t);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->reaccess_fractions.input_reaccess,
              reference.fractions.input_reaccess);
    EXPECT_EQ(report->reaccess_fractions.output_reaccess,
              reference.fractions.output_reaccess);
    EXPECT_EQ(report->reaccess_intervals.input_input.sorted_samples(),
              reference.input_input);
    EXPECT_EQ(report->reaccess_intervals.output_input.sorted_samples(),
              reference.output_input);
  }
}

// --- Temporal (Figures 7-9) ------------------------------------------------------

TEST(TemporalTest, EmptyTraceHasEmptySeries) {
  trace::Trace t;
  EXPECT_TRUE(ComputeSubmissionSeries(t).jobs_per_hour.empty());
}

TEST(TemporalTest, SeriesBucketsBySubmitHour) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  t.AddJob(MakeJob(2, 1800, 1, 0, 1));
  t.AddJob(MakeJob(3, 3700, 1, 0, 1));
  std::vector<double> counts = ComputeSubmissionSeries(t).jobs_per_hour;
  ASSERT_GE(counts.size(), 2u);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
}

TEST(TemporalTest, SeriesSumsBytesAndTaskSeconds) {
  trace::Trace t;
  trace::JobRecord job = MakeJob(1, 0, 100, 10, 1);
  job.map_task_seconds = 40;
  job.reduce_task_seconds = 10;
  t.AddJob(job);
  SubmissionSeries series = ComputeSubmissionSeries(t);
  EXPECT_DOUBLE_EQ(series.bytes_per_hour[0], 111.0);
  EXPECT_DOUBLE_EQ(series.task_seconds_per_hour[0], 50.0);
}

TEST(TemporalTest, SubmissionSeriesDimensions) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1e6, 0, 0));
  t.AddJob(MakeJob(2, 3600 * 5, 1e6, 0, 0));
  SubmissionSeries series = ComputeSubmissionSeries(t);
  EXPECT_EQ(series.jobs_per_hour.size(), 6u);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[0], 1.0);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[5], 1.0);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[2], 0.0);
}

TEST(TemporalTest, WeekWindowClamps) {
  std::vector<double> series(300, 1.0);
  EXPECT_EQ(WeekWindow(series).size(), 168u);
  EXPECT_EQ(WeekWindow(series, 200).size(), 100u);
  EXPECT_TRUE(WeekWindow({}).empty());
}

TEST(TemporalTest, CorrelationsDetectCoupledDimensions) {
  trace::Trace t;
  Pcg32 rng(9);
  // Bytes and task-seconds proportional; job counts constant.
  for (int h = 0; h < 200; ++h) {
    double scale = 1.0 + 10.0 * rng.NextDouble();
    trace::JobRecord job = MakeJob(h + 1, h * 3600.0 + 10, scale * 1e9,
                                   scale * 1e8, scale * 1e7);
    job.map_task_seconds = scale * 1000;
    t.AddJob(job);
  }
  SeriesCorrelations corr = ComputeSeriesCorrelations(t);
  EXPECT_GT(corr.bytes_task_seconds, 0.95);
  EXPECT_EQ(corr.jobs_bytes, 0.0);  // jobs/hour is constant
}

TEST(TemporalTest, DiurnalStrengthHighForDailyPattern) {
  trace::Trace t;
  uint64_t id = 1;
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; ++h) {
      int jobs = (h >= 9 && h <= 17) ? 10 : 1;  // business hours
      for (int j = 0; j < jobs; ++j) {
        t.AddJob(MakeJob(id++, d * 86400.0 + h * 3600.0 + j, 1, 0, 1));
      }
    }
  }
  EXPECT_GT(DiurnalStrength(t), 0.5);
}

// --- Compute (Figure 10, Table 2) ------------------------------------------------

TEST(JobNamesTest, SharesByThreeWeightings) {
  trace::Trace t;
  // 3 small "ad" jobs, 1 huge "insert" job.
  for (int i = 0; i < 3; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1e6, 0, 0, "ad_hoc_" + std::to_string(i)));
  }
  trace::JobRecord big =
      MakeJob(4, 100, 1e12, 0, 0, "INSERT OVERWRITE TABLE x");
  big.map_task_seconds = 1e6;
  t.AddJob(big);
  JobNameReport report = AnalyzeJobNames(t);
  ASSERT_GE(report.words.size(), 2u);
  EXPECT_EQ(report.words[0].word, "ad");
  EXPECT_DOUBLE_EQ(report.words[0].by_jobs, 0.75);
  EXPECT_LT(report.words[0].by_bytes, 0.01);
  // Framework attribution: insert -> Hive.
  EXPECT_NEAR(report.framework_by_jobs[static_cast<int>(
                  trace::Framework::kHive)],
              0.25, 1e-9);
  EXPECT_NEAR(report.framework_by_bytes[static_cast<int>(
                  trace::Framework::kHive)],
              1.0, 0.01);
}

TEST(JobNamesTest, UnnamedJobsExcluded) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  JobNameReport report = AnalyzeJobNames(t);
  EXPECT_EQ(report.named_jobs, 0u);
  EXPECT_TRUE(report.words.empty());
}

TEST(JobNamesTest, TopTwoFrameworkShare) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "insert a"));
  t.AddJob(MakeJob(2, 1, 1, 0, 1, "PigLatin:x.pig"));
  t.AddJob(MakeJob(3, 2, 1, 0, 1, "custom_thing"));
  t.AddJob(MakeJob(4, 3, 1, 0, 1, "select b"));
  JobNameReport report = AnalyzeJobNames(t);
  // Hive (0.5) + Pig or Native (0.25) = 0.75.
  EXPECT_NEAR(report.TopTwoFrameworkJobShare(), 0.75, 1e-9);
}

TEST(ClassifyTest, SeparatesSmallAndLargeJobs) {
  trace::Trace t;
  Pcg32 rng(17);
  for (int i = 0; i < 400; ++i) {
    trace::JobRecord job =
        MakeJob(i + 1, i * 10.0, 1e5 * (1 + rng.NextDouble()), 0,
                1e4 * (1 + rng.NextDouble()));
    job.duration = 30;
    job.map_task_seconds = 20;
    t.AddJob(job);
  }
  for (int i = 0; i < 40; ++i) {
    trace::JobRecord job =
        MakeJob(500 + i, i * 100.0, 1e12 * (1 + rng.NextDouble()),
                1e11 * (1 + rng.NextDouble()), 1e10);
    job.duration = 3600;
    job.map_task_seconds = 1e6;
    job.reduce_task_seconds = 1e5;
    t.AddJob(job);
  }
  auto result = ClassifyJobs(t);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->k, 2);
  EXPECT_NEAR(result->largest_class_fraction, 400.0 / 440.0, 0.05);
  EXPECT_NEAR(result->fraction_under_10gb, 400.0 / 440.0, 1e-9);
  EXPECT_EQ(result->classes[0].label, "Small jobs");
}

TEST(ClassifyTest, EmptyTraceFails) {
  trace::Trace t;
  EXPECT_FALSE(ClassifyJobs(t).ok());
}

TEST(ClassifyTest, SingleJobGivesOneClass) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1e6, 0, 1e5));
  auto result = ClassifyJobs(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->k, 1);
  EXPECT_DOUBLE_EQ(result->largest_class_fraction, 1.0);
}

// The classification as it ran before it read columns: a reservoir of
// per-job feature vectors, and a second KMeansFit at the elbow's k. Kept
// here only as the oracle for the column version.
std::vector<double> LegacyFeatures(const trace::JobRecord& job) {
  auto f = [](double x) { return std::log10(1.0 + x); };
  return {f(job.input_bytes),      f(job.shuffle_bytes),
          f(job.output_bytes),     f(job.duration),
          f(job.map_task_seconds), f(job.reduce_task_seconds)};
}

std::vector<std::vector<double>> LegacySample(
    const trace::Trace& trace, const ClassificationOptions& options) {
  Pcg32 rng(options.seed, /*stream=*/0xc1a55);
  stats::ReservoirSampler<std::vector<double>> sampler(
      std::max<size_t>(1, options.sample_cap), rng.Fork());
  for (const auto& job : trace.jobs()) sampler.Add(LegacyFeatures(job));
  return sampler.sample();
}

JobClassification LegacyClassify(const trace::Trace& trace,
                                 const ClassificationOptions& options) {
  std::vector<std::vector<double>> sample = LegacySample(trace, options);
  stats::ColumnScaling scaling = stats::StandardizeColumns(sample);
  stats::KMeansOptions kmeans_options;
  kmeans_options.seed = options.seed;
  kmeans_options.threads = options.threads;
  auto elbow = stats::ChooseKByElbow(sample, options.max_k,
                                     options.min_improvement, kmeans_options);
  EXPECT_TRUE(elbow.ok());
  auto fit = stats::KMeansFit(sample, elbow->k, kmeans_options);
  EXPECT_TRUE(fit.ok());
  JobClassification result;
  result.k = elbow->k;
  result.elbow_residuals = elbow->residuals;
  const size_t k = fit->centroids.size();
  std::vector<size_t> counts(k, 0);
  std::vector<std::vector<double>> log_sums(k, std::vector<double>(6, 0.0));
  // Chunked like the production pass so the floating sums associate the
  // same way.
  constexpr size_t kAssignGrain = 8192;
  const auto& jobs = trace.jobs();
  for (size_t lo = 0; lo < jobs.size(); lo += kAssignGrain) {
    std::vector<size_t> part_counts(k, 0);
    std::vector<std::vector<double>> part_sums(k, std::vector<double>(6, 0.0));
    for (size_t i = lo; i < std::min(jobs.size(), lo + kAssignGrain); ++i) {
      std::vector<double> features = LegacyFeatures(jobs[i]);
      for (size_t d = 0; d < 6; ++d) {
        features[d] -= scaling.mean[d];
        if (scaling.stddev[d] > 0.0) features[d] /= scaling.stddev[d];
      }
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (size_t c = 0; c < k; ++c) {
        double dist = 0.0;
        for (size_t d = 0; d < 6; ++d) {
          double diff = features[d] - fit->centroids[c][d];
          dist += diff * diff;
        }
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      ++part_counts[best];
      for (size_t d = 0; d < 6; ++d) {
        part_sums[best][d] +=
            features[d] * (scaling.stddev[d] > 0.0 ? scaling.stddev[d] : 1.0) +
            scaling.mean[d];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      counts[c] += part_counts[c];
      for (size_t d = 0; d < 6; ++d) log_sums[c][d] += part_sums[c][d];
    }
  }
  auto inverse = [](double v) { return std::max(0.0, std::pow(10.0, v) - 1.0); };
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    const double n = static_cast<double>(counts[c]);
    JobClass jc;
    jc.count = counts[c];
    jc.input_bytes = inverse(log_sums[c][0] / n);
    jc.shuffle_bytes = inverse(log_sums[c][1] / n);
    jc.output_bytes = inverse(log_sums[c][2] / n);
    jc.duration_seconds = inverse(log_sums[c][3] / n);
    jc.map_task_seconds = inverse(log_sums[c][4] / n);
    jc.reduce_task_seconds = inverse(log_sums[c][5] / n);
    jc.label = LabelForCentroid(jc);
    result.classes.push_back(jc);
  }
  std::sort(result.classes.begin(), result.classes.end(),
            [](const JobClass& a, const JobClass& b) {
              return a.count > b.count;
            });
  return result;
}

trace::Trace GeneratedTrace(const char* workload, size_t jobs) {
  auto spec = workloads::PaperWorkloadByName(workload);
  EXPECT_TRUE(spec.ok());
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  auto generated = workloads::GenerateTrace(*spec, options);
  EXPECT_TRUE(generated.ok());
  return *std::move(generated);
}

TEST(ClassifyTest, SamplesTheLegacyReservoirRows) {
  const trace::Trace t = GeneratedTrace("FB-2009", 5000);
  ClassificationOptions options;
  options.sample_cap = 1500;  // well under the job count: replacements run
  const std::vector<size_t> rows =
      ClassificationSampleRows(t.size(), options);
  const std::vector<std::vector<double>> legacy = LegacySample(t, options);
  ASSERT_EQ(rows.size(), legacy.size());
  for (size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(LegacyFeatures(t.JobAt(rows[s])), legacy[s]) << "slot " << s;
  }
}

TEST(ClassifyTest, ClassTableMatchesTheLegacyClassification) {
  for (const char* workload : {"FB-2009", "CC-b"}) {
    const trace::Trace t = GeneratedTrace(workload, 20000);
    for (int threads : {1, 4}) {
      ClassificationOptions options;
      options.sample_cap = 6000;
      options.threads = threads;
      auto result = ClassifyJobs(t, options);
      ASSERT_TRUE(result.ok());
      const JobClassification legacy = LegacyClassify(t, options);
      EXPECT_EQ(result->k, legacy.k) << workload;
      EXPECT_EQ(result->elbow_residuals, legacy.elbow_residuals) << workload;
      ASSERT_EQ(result->classes.size(), legacy.classes.size()) << workload;
      for (size_t c = 0; c < legacy.classes.size(); ++c) {
        const JobClass& a = result->classes[c];
        const JobClass& b = legacy.classes[c];
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.input_bytes, b.input_bytes);
        EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
        EXPECT_EQ(a.output_bytes, b.output_bytes);
        EXPECT_EQ(a.duration_seconds, b.duration_seconds);
        EXPECT_EQ(a.map_task_seconds, b.map_task_seconds);
        EXPECT_EQ(a.reduce_task_seconds, b.reduce_task_seconds);
      }
    }
  }
}

TEST(LabelTest, VocabularyMatchesPaper) {
  JobClass small;
  small.input_bytes = 1 * kMB;
  small.output_bytes = 100 * kKB;
  small.duration_seconds = 30;
  small.map_task_seconds = 20;
  EXPECT_EQ(LabelForCentroid(small), "Small jobs");

  JobClass load;
  load.input_bytes = 400 * kKB;
  load.output_bytes = 447 * kGB;
  load.duration_seconds = kHour;
  load.map_task_seconds = 66657;
  EXPECT_EQ(LabelForCentroid(load), "Load data");

  JobClass aggregate;
  aggregate.input_bytes = 4.7 * kTB;
  aggregate.shuffle_bytes = 374 * kMB;
  aggregate.output_bytes = 24 * kMB;
  aggregate.duration_seconds = 9 * kMinute;
  aggregate.map_task_seconds = 876786;
  aggregate.reduce_task_seconds = 705;
  EXPECT_NE(LabelForCentroid(aggregate).find("Aggregate"), std::string::npos);

  JobClass map_only;
  map_only.input_bytes = 1.2 * kTB;
  map_only.output_bytes = 27 * kGB;
  map_only.duration_seconds = 2.5 * kHour;
  map_only.map_task_seconds = 437615;
  EXPECT_NE(LabelForCentroid(map_only).find("Map only"), std::string::npos);

  JobClass expand;
  expand.input_bytes = 100 * kGB;
  expand.shuffle_bytes = 120 * kGB;
  expand.output_bytes = 600 * kGB;
  expand.duration_seconds = kHour;
  expand.map_task_seconds = 1e6;
  expand.reduce_task_seconds = 1e6;
  EXPECT_NE(LabelForCentroid(expand).find("Expand"), std::string::npos);
}

// --- Facade ----------------------------------------------------------------------

TEST(WorkloadReportTest, RunsFullPipeline) {
  trace::Trace t;
  t.mutable_metadata().name = "mini";
  for (int i = 0; i < 100; ++i) {
    t.AddJob(MakeJob(i + 1, i * 120.0, 1e6, 0, 1e5, "ad_" + std::to_string(i),
                     "in/a", "out/" + std::to_string(i)));
  }
  auto report = AnalyzeWorkload(t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.jobs, 100u);
  EXPECT_EQ(report->names.named_jobs, 100u);
  EXPECT_GE(report->classes.k, 1);
  std::string text = FormatReport(*report);
  EXPECT_NE(text.find("mini"), std::string::npos);
  EXPECT_NE(text.find("Small jobs"), std::string::npos);
}

TEST(WorkloadReportTest, EmptyTraceFails) {
  trace::Trace t;
  EXPECT_FALSE(AnalyzeWorkload(t).ok());
}

}  // namespace
}  // namespace swim::core
