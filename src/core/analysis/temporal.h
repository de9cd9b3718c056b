#ifndef SWIM_CORE_ANALYSIS_TEMPORAL_H_
#define SWIM_CORE_ANALYSIS_TEMPORAL_H_

#include <vector>

#include "stats/burstiness.h"
#include "stats/fourier.h"
#include "trace/trace.h"

namespace swim::core {

/// Hourly submission time series in the paper's three submission
/// dimensions (Figure 7 columns 1-3; column 4, cluster occupancy, comes
/// from replaying on the simulator - see sim/replay.h).
struct SubmissionSeries {
  std::vector<double> jobs_per_hour;
  std::vector<double> bytes_per_hour;          // input + shuffle + output
  std::vector<double> task_seconds_per_hour;   // map + reduce
};

SubmissionSeries ComputeSubmissionSeries(const trace::Trace& trace);

/// Restriction of a series to one week starting at `start_hour` (clamped
/// to the series length), for Figure 7's weekly plots.
std::vector<double> WeekWindow(const std::vector<double>& series,
                               size_t start_hour = 0);

/// Burstiness profiles per dimension (Figure 8 uses task-seconds/hour).
struct BurstinessReport {
  stats::BurstinessProfile jobs;
  stats::BurstinessProfile bytes;
  stats::BurstinessProfile task_seconds;
};

BurstinessReport ComputeBurstiness(const trace::Trace& trace);
BurstinessReport ComputeBurstiness(const SubmissionSeries& series);

/// Pairwise Pearson correlations of the hourly submission series (Figure
/// 9). The paper's averages: jobs-bytes 0.21, jobs-compute 0.14,
/// bytes-compute 0.62 (the strongest - "MapReduce workloads remain
/// data-centric rather than compute-centric").
struct SeriesCorrelations {
  double jobs_bytes = 0.0;
  double jobs_task_seconds = 0.0;
  double bytes_task_seconds = 0.0;
};

SeriesCorrelations ComputeSeriesCorrelations(const trace::Trace& trace);
SeriesCorrelations ComputeSeriesCorrelations(const SubmissionSeries& series);

/// Diurnal (24-hour) signal strength of job submissions in [0, 1]: the
/// fraction of non-DC spectral power at the daily frequency. Supports the
/// paper's Figure 7 observation that some workloads (FB-2010 submissions,
/// CC-e utilization) show visible diurnal patterns.
double DiurnalStrength(const trace::Trace& trace);
double DiurnalStrength(const SubmissionSeries& series);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_TEMPORAL_H_
