#include "core/analysis/streaming.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>

#include "common/parallel.h"
#include "common/units.h"

namespace swim::core {
namespace {

/// Fixed chunk size for the parallel sketch build. Chunk boundaries depend
/// only on the batch size (never on thread count), and chunk sketches are
/// merged in chunk order, so the folded sketches are byte-identical at any
/// SWIM_THREADS.
constexpr size_t kSketchGrain = 65536;

std::string HotFileLabel(uint64_t key) {
  return "path#" + std::to_string(key);
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(options),
      gk_input_(options.quantile_epsilon),
      gk_shuffle_(options.quantile_epsilon),
      gk_output_(options.quantile_epsilon),
      gk_duration_(options.quantile_epsilon),
      gk_reaccess_in_(options.quantile_epsilon),
      gk_reaccess_out_(options.quantile_epsilon),
      hot_inputs_(options.hot_file_capacity),
      window_jobs_(3600.0, options.window_hours),
      window_bytes_(3600.0, options.window_hours),
      window_task_seconds_(3600.0, options.window_hours) {}

void StreamingAnalyzer::SetMetadata(const trace::TraceMetadata& metadata) {
  metadata_ = metadata;
  metadata_set_ = true;
}

void StreamingAnalyzer::ObserveExtras(double submit, double shuffle_bytes,
                                      int64_t reduce_tasks,
                                      double reduce_task_seconds,
                                      double total_bytes, double task_seconds,
                                      uint32_t input_path_id,
                                      const ReaccessGaps& gaps) {
  last_submit_ = submit;
  bytes_moved_ += total_bytes;
  if (reduce_tasks == 0 && shuffle_bytes == 0.0 && reduce_task_seconds == 0.0) {
    ++map_only_;
  }
  if (total_bytes < 10.0 * kGB) ++under_10gb_;

  window_jobs_.Observe(submit, 1.0);
  window_bytes_.Observe(submit, total_bytes);
  window_task_seconds_.Observe(submit, task_seconds);

  if (input_path_id != kNoStringId) hot_inputs_.Add(input_path_id);
  if (gaps.input_input >= 0.0) gk_reaccess_in_.Add(gaps.input_input);
  if (gaps.output_input >= 0.0) gk_reaccess_out_.Add(gaps.output_input);
  ++jobs_;
}

Status StreamingAnalyzer::ValidateColumns(const trace::JobColumns& columns,
                                          size_t begin, size_t end) const {
  // The admission bar every trace source shares, plus the streaming
  // contract that submit times never run backwards.
  const double floor = jobs_ > 0 ? last_submit_
                                  : -std::numeric_limits<double>::infinity();
  std::optional<trace::RowViolation> bad =
      trace::FindInvalidRow(columns, begin, end, &floor);
  if (bad.has_value()) {
    return InvalidArgumentError("streaming batch row " +
                                std::to_string(bad->row) + ": " + bad->what);
  }
  return Status::Ok();
}

Status StreamingAnalyzer::ObserveColumns(const trace::ColumnarTraceView& view,
                                         size_t begin, size_t end) {
  if (mode_ == Mode::kJobs) {
    return FailedPreconditionError(
        "streaming analyzer already bound to parsed-row input");
  }
  if (begin > end || end > view.job_count()) {
    return InvalidArgumentError("streaming batch range out of bounds");
  }
  if (mode_ == Mode::kUnset) {
    mode_ = Mode::kColumnar;
    if (!metadata_set_) SetMetadata(view.metadata());
  }
  if (begin == end) return Status::Ok();
  const trace::JobColumns c = view.columns();
  // Validate the whole batch before touching any accumulator, so a corrupt
  // append can never poison the analyzer's state.
  SWIM_RETURN_IF_ERROR(ValidateColumns(c, begin, end));

  exact_.ObserveColumns(
      c, begin, end, [&](const ColumnRow& row, const ReaccessGaps& gaps) {
        ObserveExtras(row.submit, row.shuffle_bytes, row.reduce_tasks,
                      row.reduce_task_seconds, row.total_bytes,
                      row.task_seconds, row.input_path_id, gaps);
      });

  // Parallel sketch build over fixed-size chunks, merged in chunk order.
  const auto inputs = view.input_bytes();
  const auto shuffles = view.shuffle_bytes();
  const auto outputs = view.output_bytes();
  const auto durations = view.durations();
  const size_t rows = end - begin;
  const size_t chunk_count = (rows + kSketchGrain - 1) / kSketchGrain;
  std::vector<stats::GkQuantileSketch> chunks(
      4 * chunk_count, stats::GkQuantileSketch(options_.quantile_epsilon));
  ParallelFor(
      0, rows, kSketchGrain,
      [&](size_t chunk_begin, size_t chunk_end) {
        stats::GkQuantileSketch* lane = &chunks[4 * (chunk_begin / kSketchGrain)];
        for (size_t i = begin + chunk_begin; i < begin + chunk_end; ++i) {
          lane[0].Add(inputs[i]);
          lane[1].Add(shuffles[i]);
          lane[2].Add(outputs[i]);
          lane[3].Add(durations[i]);
        }
      },
      options_.threads);
  for (size_t c = 0; c < chunk_count; ++c) {
    gk_input_.Merge(chunks[4 * c]);
    gk_shuffle_.Merge(chunks[4 * c + 1]);
    gk_output_.Merge(chunks[4 * c + 2]);
    gk_duration_.Merge(chunks[4 * c + 3]);
  }
  ++batches_;
  return Status::Ok();
}

Status StreamingAnalyzer::ObserveJobs(Span<const trace::JobRecord> jobs) {
  if (mode_ == Mode::kColumnar) {
    return FailedPreconditionError(
        "streaming analyzer already bound to columnar input");
  }
  mode_ = Mode::kJobs;
  if (jobs.empty()) return Status::Ok();

  double prev_submit = jobs_ > 0 ? last_submit_
                                 : -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < jobs.size(); ++i) {
    const trace::JobRecord& job = jobs[i];
    const double values[7] = {job.submit_time,      job.duration,
                              job.input_bytes,      job.shuffle_bytes,
                              job.output_bytes,     job.map_task_seconds,
                              job.reduce_task_seconds};
    for (double v : values) {
      if (!std::isfinite(v)) {
        return InvalidArgumentError("streaming batch job " +
                                    std::to_string(job.job_id) +
                                    ": non-finite value");
      }
    }
    std::string violation = trace::ValidateJobRecord(job);
    if (!violation.empty()) {
      return InvalidArgumentError("streaming batch job " +
                                  std::to_string(job.job_id) + ": " +
                                  violation);
    }
    if (job.submit_time < prev_submit) {
      return InvalidArgumentError(
          "streaming batch not in submit order at job " +
          std::to_string(job.job_id));
    }
    prev_submit = job.submit_time;
  }

  for (const trace::JobRecord& job : jobs) {
    // Intern in the trace index build's order — input path before output
    // path per job — so CSV-mode ids match the batch trace's ids exactly.
    const uint32_t input_id = job.input_path.empty()
                                  ? kNoStringId
                                  : path_interner_.Intern(job.input_path);
    const uint32_t output_id = job.output_path.empty()
                                   ? kNoStringId
                                   : path_interner_.Intern(job.output_path);
    const double total_bytes = job.TotalBytes();
    const double task_seconds = job.TotalTaskSeconds();
    const ReaccessGaps gaps =
        exact_.Observe(job.submit_time, job.FinishTime(), total_bytes,
                       task_seconds, input_id, output_id);
    ObserveExtras(job.submit_time, job.shuffle_bytes, job.reduce_tasks,
                  job.reduce_task_seconds, total_bytes, task_seconds,
                  input_id, gaps);
    exact_.names.Observe(job.name, total_bytes, task_seconds);
  }

  const size_t rows = jobs.size();
  const size_t chunk_count = (rows + kSketchGrain - 1) / kSketchGrain;
  std::vector<stats::GkQuantileSketch> chunks(
      4 * chunk_count, stats::GkQuantileSketch(options_.quantile_epsilon));
  ParallelFor(
      0, rows, kSketchGrain,
      [&](size_t chunk_begin, size_t chunk_end) {
        stats::GkQuantileSketch* lane = &chunks[4 * (chunk_begin / kSketchGrain)];
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          lane[0].Add(jobs[i].input_bytes);
          lane[1].Add(jobs[i].shuffle_bytes);
          lane[2].Add(jobs[i].output_bytes);
          lane[3].Add(jobs[i].duration);
        }
      },
      options_.threads);
  for (size_t c = 0; c < chunk_count; ++c) {
    gk_input_.Merge(chunks[4 * c]);
    gk_shuffle_.Merge(chunks[4 * c + 1]);
    gk_output_.Merge(chunks[4 * c + 2]);
    gk_duration_.Merge(chunks[4 * c + 3]);
  }
  ++batches_;
  return Status::Ok();
}

StatusOr<StreamingReport> StreamingAnalyzer::Report(
    const trace::ColumnarTraceView* dictionaries) const {
  if (jobs_ == 0) return InvalidArgumentError("empty trace");
  StreamingReport report;
  report.batches = batches_;
  report.quantile_epsilon = options_.quantile_epsilon;

  report.summary.name = metadata_.name;
  report.summary.machines = metadata_.machines;
  report.summary.year = metadata_.year;
  report.summary.jobs = jobs_;
  report.summary.bytes_moved = bytes_moved_;
  report.summary.map_only_jobs = map_only_;
  report.summary.span_seconds = exact_.series.span_seconds();
  report.summary.median_duration = gk_duration_.Quantile(0.5);

  auto quantiles = [](const stats::GkQuantileSketch& gk) {
    StreamingQuantiles q;
    q.p25 = gk.Quantile(0.25);
    q.p50 = gk.Quantile(0.50);
    q.p75 = gk.Quantile(0.75);
    q.p90 = gk.Quantile(0.90);
    q.p99 = gk.Quantile(0.99);
    return q;
  };
  report.input_bytes = quantiles(gk_input_);
  report.shuffle_bytes = quantiles(gk_shuffle_);
  report.output_bytes = quantiles(gk_output_);
  report.duration = quantiles(gk_duration_);

  ExactStageResults exact = exact_.Results();
  report.input_popularity = std::move(exact.input_popularity);
  report.output_popularity = std::move(exact.output_popularity);
  report.reaccess_fractions = exact.reaccess_fractions;
  report.reaccess_p75_interval =
      gk_reaccess_in_.empty() ? -1.0 : gk_reaccess_in_.Quantile(0.75);
  report.burstiness = std::move(exact.burstiness);
  report.correlations = exact.correlations;
  report.diurnal_strength = exact.diurnal_strength;
  report.names = std::move(exact.names);
  report.fraction_under_10gb =
      static_cast<double>(under_10gb_) / static_cast<double>(jobs_);

  for (const auto& entry : hot_inputs_.TopK(8)) {
    StreamingHotFile hot;
    hot.count = entry.count;
    hot.error = entry.error;
    if (mode_ == Mode::kJobs && entry.key < path_interner_.size()) {
      hot.path = std::string(
          path_interner_.NameOf(static_cast<uint32_t>(entry.key)));
    } else if (dictionaries != nullptr &&
               entry.key < dictionaries->path_count()) {
      hot.path = std::string(
          dictionaries->PathAt(static_cast<uint32_t>(entry.key)));
    } else {
      hot.path = HotFileLabel(entry.key);
    }
    report.hot_inputs.push_back(std::move(hot));
  }

  report.window.jobs_peak_to_median = window_jobs_.PeakToMedian();
  report.window.bytes_peak_to_median = window_bytes_.PeakToMedian();
  report.window.task_seconds_peak_to_median =
      window_task_seconds_.PeakToMedian();
  report.window.live_hours = window_jobs_.Window().size();
  return report;
}

std::string FormatStreamingReport(const StreamingReport& report) {
  std::ostringstream os;
  char line[256];
  os << "=== Workload: " << report.summary.name << " (streaming) ===\n";
  std::snprintf(line, sizeof(line),
                "jobs=%s  bytes_moved=%s  span=%s  machines=%d\n",
                FormatCount(report.summary.jobs).c_str(),
                FormatBytes(report.summary.bytes_moved).c_str(),
                FormatDuration(report.summary.span_seconds).c_str(),
                report.summary.machines);
  os << line;
  std::snprintf(line, sizeof(line),
                "batches=%zu  quantile sketch eps=%.2f%% of ranks\n",
                report.batches, 100.0 * report.quantile_epsilon);
  os << line;

  os << "\n-- Data access (sec. 4) --\n";
  auto size_row = [&](const char* label, const StreamingQuantiles& q) {
    std::snprintf(line, sizeof(line),
                  "%-8s p25=%-9s p50=%-9s p75=%-9s p90=%-9s p99=%s\n", label,
                  FormatBytes(q.p25).c_str(), FormatBytes(q.p50).c_str(),
                  FormatBytes(q.p75).c_str(), FormatBytes(q.p90).c_str(),
                  FormatBytes(q.p99).c_str());
    os << line;
  };
  os << "per-job size quantiles (GK sketch):\n";
  size_row("  input", report.input_bytes);
  size_row("  shuffle", report.shuffle_bytes);
  size_row("  output", report.output_bytes);
  std::snprintf(line, sizeof(line),
                "  duration p25=%-9s p50=%-9s p75=%-9s p99=%s\n",
                FormatDuration(report.duration.p25).c_str(),
                FormatDuration(report.duration.p50).c_str(),
                FormatDuration(report.duration.p75).c_str(),
                FormatDuration(report.duration.p99).c_str());
  os << line;
  if (report.input_popularity.distinct_files > 0) {
    std::snprintf(line, sizeof(line),
                  "input file popularity: %zu files, Zipf slope=%.2f "
                  "(r2=%.2f)\n",
                  report.input_popularity.distinct_files,
                  report.input_popularity.zipf.slope,
                  report.input_popularity.zipf.r_squared);
    os << line;
    std::snprintf(line, sizeof(line),
                  "re-access: %.0f%% of jobs read pre-existing inputs, "
                  "%.0f%% read pre-existing outputs\n",
                  100 * report.reaccess_fractions.input_reaccess,
                  100 * report.reaccess_fractions.output_reaccess);
    os << line;
    if (report.reaccess_p75_interval >= 0.0) {
      std::snprintf(line, sizeof(line),
                    "75%% of input re-accesses within %s\n",
                    FormatDuration(report.reaccess_p75_interval).c_str());
      os << line;
    }
    if (!report.hot_inputs.empty()) {
      os << "hot inputs (space-saving): ";
      for (const auto& hot : report.hot_inputs) {
        std::snprintf(line, sizeof(line), "%s=%llu(+/-%llu) ",
                      hot.path.c_str(),
                      static_cast<unsigned long long>(hot.count),
                      static_cast<unsigned long long>(hot.error));
        os << line;
      }
      os << "\n";
    }
  } else {
    os << "(no file paths in this trace)\n";
  }

  os << "\n-- Temporal (sec. 5) --\n";
  std::snprintf(line, sizeof(line),
                "burstiness peak:median  jobs=%.0f:1  bytes=%.0f:1  "
                "task-secs=%.0f:1\n",
                report.burstiness.jobs.PeakToMedian(),
                report.burstiness.bytes.PeakToMedian(),
                report.burstiness.task_seconds.PeakToMedian());
  os << line;
  std::snprintf(line, sizeof(line),
                "window(%zuh live) peak:median  jobs=%.0f:1  bytes=%.0f:1  "
                "task-secs=%.0f:1\n",
                report.window.live_hours, report.window.jobs_peak_to_median,
                report.window.bytes_peak_to_median,
                report.window.task_seconds_peak_to_median);
  os << line;
  std::snprintf(line, sizeof(line),
                "correlations: jobs-bytes=%.2f jobs-compute=%.2f "
                "bytes-compute=%.2f   diurnal=%.2f\n",
                report.correlations.jobs_bytes,
                report.correlations.jobs_task_seconds,
                report.correlations.bytes_task_seconds,
                report.diurnal_strength);
  os << line;

  os << "\n-- Compute (sec. 6) --\n";
  if (report.names.named_jobs > 0) {
    os << "top job-name words (by jobs): ";
    size_t shown = 0;
    for (const auto& w : report.names.words) {
      if (shown++ >= 5) break;
      std::snprintf(line, sizeof(line), "%s=%.0f%% ", w.word.c_str(),
                    100 * w.by_jobs);
      os << line;
    }
    os << "\n";
    std::snprintf(line, sizeof(line),
                  "framework share of jobs: Hive=%.0f%% Pig=%.0f%% "
                  "Oozie=%.0f%% Native=%.0f%%\n",
                  100 * report.names.framework_by_jobs[0],
                  100 * report.names.framework_by_jobs[1],
                  100 * report.names.framework_by_jobs[2],
                  100 * report.names.framework_by_jobs[3]);
    os << line;
  } else {
    os << "(no job names in this trace)\n";
  }
  std::snprintf(line, sizeof(line),
                "%.0f%% of jobs < 10GB total data (exact streaming count; "
                "k-means needs a batch pass)\n",
                100 * report.fraction_under_10gb);
  os << line;
  return os.str();
}

}  // namespace swim::core
