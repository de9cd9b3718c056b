#ifndef SWIM_CORE_ANALYSIS_WORKLOAD_REPORT_H_
#define SWIM_CORE_ANALYSIS_WORKLOAD_REPORT_H_

#include <string>

#include "common/statusor.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "trace/summary.h"
#include "trace/trace.h"

namespace swim::core {

/// Everything the paper computes for one workload, in one struct: the
/// data / temporal / compute decomposition of section 1's methodology.
struct WorkloadReport {
  trace::TraceSummary summary;           // Table 1 row
  DataSizeCdfs data_sizes;               // Figure 1
  FilePopularity input_popularity;       // Figure 2 (top)
  FilePopularity output_popularity;      // Figure 2 (bottom)
  ReaccessIntervals reaccess_intervals;  // Figure 5
  ReaccessFractions reaccess_fractions;  // Figure 6
  BurstinessReport burstiness;           // Figure 8
  SeriesCorrelations correlations;       // Figure 9
  double diurnal_strength = 0.0;         // Figure 7 observation
  JobNameReport names;                   // Figure 10
  JobClassification classes;             // Table 2
};

struct AnalysisOptions {
  ClassificationOptions classification;
  /// Worker lanes for the stage fan-out and k-means: 0 = default
  /// (SWIM_THREADS env var, else hardware concurrency), 1 = serial.
  /// Results are identical at any thread count.
  int threads = 0;
};

/// Runs the full analysis pipeline over the trace's columns (no rows are
/// built for an STF1-backed trace) as six concurrent stages on the shared
/// pool: job classification (the longest; it parallelizes internally), one
/// serial pass feeding the exact-stage accumulators (popularity, re-access,
/// hourly series, names; see accumulators.h), one data-size CDF per
/// dimension and the Table 1 summary. A classification error is returned
/// after all six have finished.
StatusOr<WorkloadReport> AnalyzeWorkload(const trace::Trace& trace,
                                         const AnalysisOptions& options = {});

/// Human-readable multi-section rendering of a report.
std::string FormatReport(const WorkloadReport& report);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_WORKLOAD_REPORT_H_
