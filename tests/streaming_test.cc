// Tests for the streaming analysis fast path and the follow-mode reader:
// exact-stage byte identity against the batch pipeline, GK quantiles
// against the SortedStats oracle, thread-count determinism, incremental ==
// one-shot, and follower resilience to truncation / mutation / garbage.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "stats/descriptive.h"
#include "trace/columnar.h"
#include "trace/stf1_mutator.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim::core {
namespace {

trace::Trace GenerateWorkload(const char* name, size_t jobs) {
  auto spec = workloads::PaperWorkloadByName(name);
  EXPECT_TRUE(spec.ok());
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  auto generated = workloads::GenerateTrace(*spec, options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return *std::move(generated);
}

trace::ColumnarTraceView ViewOf(const trace::Trace& trace) {
  auto view =
      trace::ColumnarTraceView::FromBytes(trace::TraceToColumnarBytes(trace));
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return std::move(*view);
}

StreamingReport StreamAll(const trace::ColumnarTraceView& view,
                          StreamingOptions options = {}) {
  StreamingAnalyzer analyzer(options);
  auto status = analyzer.ObserveColumns(view, 0, view.job_count());
  EXPECT_TRUE(status.ok()) << status.ToString();
  auto report = analyzer.Report(&view);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

std::string WriteTempFile(const char* name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + name;
  std::FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_NE(out, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
  return path;
}

void AppendToFile(const std::string& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "ab");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
}

/// A trace holding the first `rows` jobs of `full` (metadata preserved).
trace::Trace Prefix(const trace::Trace& full, size_t rows) {
  trace::Trace prefix;
  prefix.mutable_metadata() = full.metadata();
  for (size_t i = 0; i < rows; ++i) prefix.AddJob(full.JobAt(i));
  return prefix;
}

// --- Exact-stage identity with the batch pipeline -------------------------

TEST(StreamingTest, ExactStagesMatchBatchBitForBit) {
  const trace::Trace trace = GenerateWorkload("CC-b", 12000);
  auto batch = AnalyzeWorkload(trace);
  ASSERT_TRUE(batch.ok());
  const trace::ColumnarTraceView view = ViewOf(trace);
  const StreamingReport streaming = StreamAll(view);

  // Table 1 accumulators.
  EXPECT_EQ(streaming.summary.jobs, batch->summary.jobs);
  EXPECT_EQ(streaming.summary.bytes_moved, batch->summary.bytes_moved);
  EXPECT_EQ(streaming.summary.span_seconds, batch->summary.span_seconds);
  EXPECT_EQ(streaming.summary.map_only_jobs, batch->summary.map_only_jobs);
  EXPECT_EQ(streaming.summary.machines, batch->summary.machines);

  // File popularity: identical multiset of counts and identical fit.
  ASSERT_EQ(streaming.input_popularity.frequencies.size(),
            batch->input_popularity.frequencies.size());
  for (size_t i = 0; i < streaming.input_popularity.frequencies.size(); ++i) {
    ASSERT_EQ(streaming.input_popularity.frequencies[i],
              batch->input_popularity.frequencies[i]);
  }
  EXPECT_EQ(streaming.input_popularity.zipf.slope,
            batch->input_popularity.zipf.slope);
  EXPECT_EQ(streaming.input_popularity.zipf.r_squared,
            batch->input_popularity.zipf.r_squared);
  EXPECT_EQ(streaming.output_popularity.zipf.slope,
            batch->output_popularity.zipf.slope);
  EXPECT_EQ(streaming.output_popularity.total_accesses,
            batch->output_popularity.total_accesses);

  // Re-access fractions replicate the chronological scan exactly.
  EXPECT_EQ(streaming.reaccess_fractions.jobs_with_paths,
            batch->reaccess_fractions.jobs_with_paths);
  EXPECT_EQ(streaming.reaccess_fractions.input_reaccess,
            batch->reaccess_fractions.input_reaccess);
  EXPECT_EQ(streaming.reaccess_fractions.output_reaccess,
            batch->reaccess_fractions.output_reaccess);

  // Temporal stages consume the identical padded hourly series.
  EXPECT_EQ(streaming.burstiness.jobs.PeakToMedian(),
            batch->burstiness.jobs.PeakToMedian());
  EXPECT_EQ(streaming.burstiness.bytes.PeakToMedian(),
            batch->burstiness.bytes.PeakToMedian());
  EXPECT_EQ(streaming.burstiness.task_seconds.PeakToMedian(),
            batch->burstiness.task_seconds.PeakToMedian());
  EXPECT_EQ(streaming.correlations.jobs_bytes, batch->correlations.jobs_bytes);
  EXPECT_EQ(streaming.correlations.jobs_task_seconds,
            batch->correlations.jobs_task_seconds);
  EXPECT_EQ(streaming.correlations.bytes_task_seconds,
            batch->correlations.bytes_task_seconds);
  EXPECT_EQ(streaming.diurnal_strength, batch->diurnal_strength);

  // Name shares go through the shared JobNameAccumulator.
  EXPECT_EQ(streaming.names.named_jobs, batch->names.named_jobs);
  ASSERT_EQ(streaming.names.words.size(), batch->names.words.size());
  for (size_t i = 0; i < streaming.names.words.size(); ++i) {
    ASSERT_EQ(streaming.names.words[i].word, batch->names.words[i].word);
    ASSERT_EQ(streaming.names.words[i].by_jobs, batch->names.words[i].by_jobs);
    ASSERT_EQ(streaming.names.words[i].by_bytes,
              batch->names.words[i].by_bytes);
  }
  for (size_t f = 0; f < trace::kFrameworkCount; ++f) {
    EXPECT_EQ(streaming.names.framework_by_jobs[f],
              batch->names.framework_by_jobs[f]);
  }
}

TEST(StreamingTest, GkQuantilesWithinEpsilonOfOracle) {
  const trace::Trace trace = GenerateWorkload("FB-2010", 20000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingOptions options;
  options.quantile_epsilon = 0.005;
  const StreamingReport streaming = StreamAll(view, options);

  auto check = [&](const StreamingQuantiles& got,
                   std::vector<double> column) {
    stats::SortedStats oracle(std::move(column));
    const double n = static_cast<double>(oracle.count());
    const auto rank_of = [&](double value, double p) {
      const auto& sorted = oracle.sorted();
      const double lo = static_cast<double>(
          std::lower_bound(sorted.begin(), sorted.end(), value) -
          sorted.begin());
      const double hi = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(), value) -
          sorted.begin());
      const double target = 1.0 + p * (n - 1.0);
      const double margin = options.quantile_epsilon * n + 1.0;
      EXPECT_LE(lo + 1.0, target + margin) << "p=" << p;
      EXPECT_GE(hi, target - margin) << "p=" << p;
    };
    rank_of(got.p25, 0.25);
    rank_of(got.p50, 0.50);
    rank_of(got.p75, 0.75);
    rank_of(got.p90, 0.90);
    rank_of(got.p99, 0.99);
  };
  auto column = [&](Span<const double> span) {
    return std::vector<double>(span.begin(), span.end());
  };
  check(streaming.input_bytes, column(view.input_bytes()));
  check(streaming.shuffle_bytes, column(view.shuffle_bytes()));
  check(streaming.output_bytes, column(view.output_bytes()));
  check(streaming.duration, column(view.durations()));
}

TEST(StreamingTest, ByteIdenticalAcrossThreadCounts) {
  const trace::Trace trace = GenerateWorkload("CC-b", 150000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingOptions serial;
  serial.threads = 1;
  StreamingOptions wide;
  wide.threads = 8;
  const std::string a = FormatStreamingReport(StreamAll(view, serial));
  const std::string b = FormatStreamingReport(StreamAll(view, wide));
  EXPECT_EQ(a, b);
}

TEST(StreamingTest, IncrementalMatchesOneShotExactStages) {
  const trace::Trace trace = GenerateWorkload("CC-b", 9000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  const StreamingReport one_shot = StreamAll(view);

  StreamingAnalyzer incremental;
  size_t at = 0;
  // Uneven batch sizes, as a follower would produce.
  for (size_t step : {1u, 137u, 4000u, 2u, 4860u}) {
    const size_t end = std::min(view.job_count(), at + step);
    ASSERT_TRUE(incremental.ObserveColumns(view, at, end).ok());
    at = end;
  }
  ASSERT_EQ(at, view.job_count());
  auto report = incremental.Report(&view);
  ASSERT_TRUE(report.ok());

  // Exact stages are running scalar accumulations in row order: batching
  // cannot change them.
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->summary.span_seconds, one_shot.summary.span_seconds);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->reaccess_fractions.output_reaccess,
            one_shot.reaccess_fractions.output_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
  EXPECT_EQ(report->correlations.bytes_task_seconds,
            one_shot.correlations.bytes_task_seconds);
  EXPECT_EQ(report->diurnal_strength, one_shot.diurnal_strength);
  EXPECT_EQ(report->fraction_under_10gb, one_shot.fraction_under_10gb);
  // GK answers may differ across batchings but stay within epsilon of each
  // other's rank window (both are within eps of the truth).
  EXPECT_NEAR(report->duration.p50, one_shot.duration.p50,
              0.05 * one_shot.duration.p50 + 1.0);
}

TEST(StreamingTest, TraceColumnsMatchStf1ColumnsExactly) {
  const trace::Trace trace = GenerateWorkload("CC-b", 8000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  const StreamingReport columnar = StreamAll(view);

  StreamingAnalyzer from_trace;
  from_trace.SetMetadata(trace.metadata());
  ASSERT_TRUE(from_trace.ObserveColumns(trace.columns(), 0, trace.size()).ok());
  auto report = from_trace.Report(trace::DictionaryView(trace.paths()));
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->summary.bytes_moved, columnar.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            columnar.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            columnar.input_popularity.zipf.slope);
  ASSERT_EQ(report->names.words.size(), columnar.names.words.size());
  for (size_t i = 0; i < report->names.words.size(); ++i) {
    ASSERT_EQ(report->names.words[i].word, columnar.names.words[i].word);
  }
  // Both sources emit identical formatted output (modulo nothing: the
  // sketches saw the same values in the same chunk layout).
  EXPECT_EQ(FormatStreamingReport(*report), FormatStreamingReport(columnar));
}

TEST(StreamingTest, RejectedBatchLeavesAnalyzerUntouched) {
  const trace::Trace trace = GenerateWorkload("CC-b", 1000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingAnalyzer analyzer;
  ASSERT_TRUE(analyzer.ObserveColumns(view, 0, 500).ok());
  const std::string before =
      FormatStreamingReport(*analyzer.Report(&view));

  // Re-observing rows 0..500 violates submit monotonicity (they precede
  // the consumed mark) and must be rejected wholesale.
  auto status = analyzer.ObserveColumns(view, 0, 500);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(analyzer.jobs_observed(), 500u);
  EXPECT_EQ(FormatStreamingReport(*analyzer.Report(&view)), before);

  // A NaN row is caught in the validation pre-pass.
  trace::Trace bad = Prefix(trace, 0);
  trace::JobRecord poison = trace.JobAt(999);
  poison.input_bytes = std::nan("");
  bad.AddJob(poison);
  StreamingAnalyzer fresh;
  auto bad_status = fresh.ObserveColumns(bad.columns(), 0, bad.size());
  EXPECT_FALSE(bad_status.ok());
  EXPECT_EQ(fresh.jobs_observed(), 0u);
}

TEST(StreamingTest, EmptyReportIsAnError) {
  StreamingAnalyzer analyzer;
  EXPECT_FALSE(analyzer.Report().ok());
}

// --- Follow mode: STF1 ----------------------------------------------------

TEST(FollowTest, Stf1GrowthIsConsumedIncrementally) {
  const trace::Trace full = GenerateWorkload("CC-b", 6000);
  const std::string path = WriteTempFile(
      "follow_grow.stf1", trace::TraceToColumnarBytes(Prefix(full, 2000)));

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->new_jobs, 2000u);

  // Grow the snapshot (the producer pattern: rewrite with more rows).
  WriteTempFile("follow_grow.stf1",
                trace::TraceToColumnarBytes(Prefix(full, 6000)));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->new_jobs, 4000u);
  EXPECT_EQ(second->total_jobs, 6000u);

  // No growth -> a no-op poll.
  auto third = follower->Poll();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->new_jobs, 0u);

  // The incrementally-built report matches a one-shot stream of the full
  // trace on its exact stages.
  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
}

TEST(FollowTest, Stf1ShrinkIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 3000);
  const std::string path = WriteTempFile(
      "follow_shrink.stf1", trace::TraceToColumnarBytes(full));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  WriteTempFile("follow_shrink.stf1",
                trace::TraceToColumnarBytes(Prefix(full, 1000)));
  auto poll = follower->Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(follower->jobs_consumed(), 3000u);  // analyzer untouched
}

TEST(FollowTest, Stf1PrefixMutationIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 3000);
  const std::string path = WriteTempFile(
      "follow_mutate.stf1", trace::TraceToColumnarBytes(Prefix(full, 2000)));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());

  // "Grow" with a file whose consumed prefix differs: shift every submit
  // time. The spot checks must refuse it.
  trace::Trace shifted;
  shifted.mutable_metadata() = full.metadata();
  for (size_t i = 0; i < full.size(); ++i) {
    trace::JobRecord job = full.JobAt(i);
    job.submit_time += 1.0;
    shifted.AddJob(job);
  }
  WriteTempFile("follow_mutate.stf1", trace::TraceToColumnarBytes(shifted));
  auto poll = follower->Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(follower->jobs_consumed(), 2000u);
}

TEST(FollowTest, Stf1MutatorFuzzNeverPoisonsTheAnalyzer) {
  // Corrupt the grown snapshot 200 ways; every poll must either error
  // cleanly or consume valid rows, and after restoring the good file the
  // follower must converge to the same exact-stage state as an untouched
  // one-shot run — corruption can delay the tail but never taint it.
  const trace::Trace full = GenerateWorkload("CC-b", 2500);
  const std::string good_half =
      trace::TraceToColumnarBytes(Prefix(full, 1500));
  const std::string good_full = trace::TraceToColumnarBytes(full);
  const trace::Stf1Mutator mutator(2026);
  const std::string path = WriteTempFile("follow_fuzz.stf1", good_half);

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  ASSERT_EQ(follower->jobs_consumed(), 1500u);

  size_t clean_errors = 0;
  for (uint64_t iteration = 0; iteration < 200; ++iteration) {
    WriteTempFile("follow_fuzz.stf1",
                  mutator.Mutate(good_full, iteration));
    auto poll = follower->Poll();
    if (!poll.ok()) ++clean_errors;
    // Whatever happened, consumed never regresses and never exceeds the
    // full trace.
    ASSERT_GE(follower->jobs_consumed(), 1500u);
    ASSERT_LE(follower->jobs_consumed(), full.size());
    if (follower->jobs_consumed() == full.size()) break;
  }
  // Restore the pristine full file; the follower finishes the job.
  WriteTempFile("follow_fuzz.stf1", good_full);
  auto final_poll = follower->Poll();
  ASSERT_TRUE(final_poll.ok()) << final_poll.status().ToString();
  EXPECT_EQ(follower->jobs_consumed(), full.size());
  EXPECT_GT(clean_errors, 0u);  // the mutator did land corruption

  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
}

// --- Follow mode: CSV -----------------------------------------------------

TEST(FollowTest, CsvAppendsAreConsumedIncrementally) {
  const trace::Trace full = GenerateWorkload("CC-b", 4000);
  const std::string csv = trace::TraceToCsv(full);
  // Split at a line boundary near the middle.
  const size_t half = csv.find('\n', csv.size() / 2) + 1;
  const std::string path =
      WriteTempFile("follow_grow.csv", csv.substr(0, half));

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->new_jobs, 0u);
  EXPECT_LT(first->new_jobs, full.size());

  AppendToFile(path, csv.substr(half));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_jobs, full.size());

  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  // Each chunk's ids were mapped onto the follower's dictionaries, so the
  // id-keyed stages see the one-shot stream's ids.
  EXPECT_EQ(report->input_popularity.distinct_files,
            one_shot.input_popularity.distinct_files);
  ASSERT_EQ(report->hot_inputs.size(), one_shot.hot_inputs.size());
  for (size_t i = 0; i < report->hot_inputs.size(); ++i) {
    EXPECT_EQ(report->hot_inputs[i].path, one_shot.hot_inputs[i].path);
    EXPECT_EQ(report->hot_inputs[i].count, one_shot.hot_inputs[i].count);
  }
  ASSERT_EQ(report->names.words.size(), one_shot.names.words.size());
  for (size_t i = 0; i < report->names.words.size(); ++i) {
    EXPECT_EQ(report->names.words[i].word, one_shot.names.words[i].word);
    EXPECT_EQ(report->names.words[i].by_jobs, one_shot.names.words[i].by_jobs);
  }
}

TEST(FollowTest, CsvHalfFlushedLineWaitsForCompletion) {
  const trace::Trace full = GenerateWorkload("CC-b", 100);
  const std::string csv = trace::TraceToCsv(full);
  const size_t last_line_start = csv.rfind('\n', csv.size() - 2) + 1;
  // Write everything except the tail of the final record.
  const std::string path = WriteTempFile(
      "follow_torn.csv", csv.substr(0, last_line_start + 10));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_jobs, 99u);  // the torn row is not consumed
  // Complete the record; the next poll picks it up.
  AppendToFile(path, csv.substr(last_line_start + 10));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->new_jobs, 1u);
  EXPECT_EQ(second->total_jobs, 100u);
}

TEST(FollowTest, CsvShrinkIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 200);
  const std::string csv = trace::TraceToCsv(full);
  const std::string path = WriteTempFile("follow_csvshrink.csv", csv);
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  WriteTempFile("follow_csvshrink.csv", csv.substr(0, csv.size() / 2));
  EXPECT_FALSE(follower->Poll().ok());
  EXPECT_EQ(follower->jobs_consumed(), 200u);
}

TEST(FollowTest, OutOfOrderCsvAppendIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 500);
  const std::string csv = trace::TraceToCsv(full);
  const std::string path = WriteTempFile("follow_ooo.csv", csv);
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  // Append a row whose submit time precedes the consumed stream.
  trace::Trace tail;
  tail.mutable_metadata() = full.metadata();
  trace::JobRecord early = full.JobAt(0);
  early.job_id = 999999;
  tail.AddJob(early);
  std::string tail_csv = trace::TraceToCsv(tail);
  // Keep only the data row (drop comments + header).
  const size_t header_end =
      tail_csv.find('\n', tail_csv.find("job_id,")) + 1;
  AppendToFile(path, tail_csv.substr(header_end));
  EXPECT_FALSE(follower->Poll().ok());
  EXPECT_EQ(follower->jobs_consumed(), 500u);
}

}  // namespace
}  // namespace swim::core
