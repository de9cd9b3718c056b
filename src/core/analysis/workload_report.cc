#include "core/analysis/workload_report.h"

#include <cstdio>
#include <functional>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/units.h"
#include "core/analysis/accumulators.h"

namespace swim::core {

namespace {

/// Every exact stage in one pass over the columns. The re-access intervals
/// go exactly into their CDFs.
void ObserveExact(const trace::JobColumns& columns, WorkloadReport* report) {
  ExactStages exact;
  std::vector<double> input_input;
  std::vector<double> output_input;
  exact.ObserveColumns(columns, 0, columns.size,
                       [&](const ColumnRow&, const ReaccessGaps& gaps) {
                         if (gaps.input_input >= 0.0) {
                           input_input.push_back(gaps.input_input);
                         }
                         if (gaps.output_input >= 0.0) {
                           output_input.push_back(gaps.output_input);
                         }
                       });
  ExactStageResults results = exact.Results();
  report->input_popularity = std::move(results.input_popularity);
  report->output_popularity = std::move(results.output_popularity);
  report->reaccess_intervals =
      ReaccessIntervals{stats::EmpiricalCdf(std::move(input_input)),
                        stats::EmpiricalCdf(std::move(output_input))};
  report->reaccess_fractions = results.reaccess_fractions;
  report->burstiness = std::move(results.burstiness);
  report->correlations = results.correlations;
  report->diurnal_strength = results.diurnal_strength;
  report->names = std::move(results.names);
}

}  // namespace

StatusOr<WorkloadReport> AnalyzeWorkload(const trace::Trace& trace,
                                         const AnalysisOptions& options) {
  if (trace.empty()) return InvalidArgumentError("empty trace");
  WorkloadReport report;
  const trace::JobColumns columns = trace.columns();
  SWIM_RETURN_IF_ERROR(
      CheckHorizon(columns, 0, columns.size, columns.submit_time[0]));
  ClassificationOptions classification = options.classification;
  if (classification.threads == 0) classification.threads = options.threads;
  Status classified;
  // Each stage writes disjoint report fields and only reads the columns.
  // Classification is the longest stage, so it goes first: the other five
  // run beside it instead of after it.
  std::vector<std::function<void()>> stages = {
      [&]() {
        StatusOr<JobClassification> classes =
            ClassifyJobs(columns, classification);
        classified = classes.status();
        if (classes.ok()) report.classes = *std::move(classes);
      },
      [&]() { ObserveExact(columns, &report); },
      [&]() {
        report.data_sizes.input = ColumnCdf(columns.input_bytes, columns.size);
      },
      [&]() {
        report.data_sizes.shuffle =
            ColumnCdf(columns.shuffle_bytes, columns.size);
      },
      [&]() {
        report.data_sizes.output =
            ColumnCdf(columns.output_bytes, columns.size);
      },
      [&]() { report.summary = trace::Summarize(trace.metadata(), columns); },
  };
  RunConcurrently(stages, options.threads);
  SWIM_RETURN_IF_ERROR(classified);
  return report;
}

std::string FormatReport(const WorkloadReport& report) {
  std::ostringstream os;
  char line[256];
  os << "=== Workload: " << report.summary.name << " ===\n";
  std::snprintf(line, sizeof(line),
                "jobs=%s  bytes_moved=%s  span=%s  machines=%d\n",
                FormatCount(report.summary.jobs).c_str(),
                FormatBytes(report.summary.bytes_moved).c_str(),
                FormatDuration(report.summary.span_seconds).c_str(),
                report.summary.machines);
  os << line;

  os << "\n-- Data access (sec. 4) --\n";
  std::snprintf(line, sizeof(line),
                "median per-job sizes: input=%s shuffle=%s output=%s\n",
                FormatBytes(report.data_sizes.input.median()).c_str(),
                FormatBytes(report.data_sizes.shuffle.median()).c_str(),
                FormatBytes(report.data_sizes.output.median()).c_str());
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
    if (!report.reaccess_intervals.input_input.empty()) {
      std::snprintf(
          line, sizeof(line), "75%% of input re-accesses within %s\n",
          FormatDuration(report.reaccess_intervals.input_input.Quantile(0.75))
              .c_str());
      os << line;
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
                "k-means: k=%d, largest class %.0f%% of jobs, %.0f%% of jobs "
                "< 10GB total data\n",
                report.classes.k, 100 * report.classes.largest_class_fraction,
                100 * report.classes.fraction_under_10gb);
  os << line;
  for (const auto& jc : report.classes.classes) {
    std::snprintf(line, sizeof(line),
                  "  %8zu  in=%-9s shf=%-9s out=%-9s dur=%-8s  %s\n",
                  jc.count, FormatBytes(jc.input_bytes).c_str(),
                  FormatBytes(jc.shuffle_bytes).c_str(),
                  FormatBytes(jc.output_bytes).c_str(),
                  FormatDuration(jc.duration_seconds).c_str(),
                  jc.label.c_str());
    os << line;
  }
  return os.str();
}

}  // namespace swim::core
