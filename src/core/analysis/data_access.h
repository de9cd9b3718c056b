#ifndef SWIM_CORE_ANALYSIS_DATA_ACCESS_H_
#define SWIM_CORE_ANALYSIS_DATA_ACCESS_H_

#include <string>
#include <vector>

#include "stats/empirical_cdf.h"
#include "stats/zipf.h"
#include "trace/trace.h"

namespace swim::core {

/// Per-job data size distributions (paper Figure 1).
struct DataSizeCdfs {
  stats::EmpiricalCdf input;
  stats::EmpiricalCdf shuffle;
  stats::EmpiricalCdf output;
};

/// Distributions of per-job input/shuffle/output bytes. Zero-byte
/// dimensions (e.g. shuffle of map-only jobs) are included, matching the
/// paper's CDFs which start at a nonzero fraction for x=0.
DataSizeCdfs ComputeDataSizeCdfs(const trace::Trace& trace);

/// One Figure 1 CDF: the first `size` values of `column`, copied and
/// radix-sorted (RadixSortDoubles; a -0.0 size reads as +0.0).
stats::EmpiricalCdf ColumnCdf(const double* column, size_t size);

/// File popularity analysis (paper Figure 2): access counts per distinct
/// path, sorted descending, with the fitted Zipf slope. The paper finds
/// slope ~ 5/6 for every workload, for both inputs and outputs.
struct FilePopularity {
  std::vector<double> frequencies;  // descending access counts
  stats::ZipfFitResult zipf;
  size_t distinct_files = 0;
  size_t total_accesses = 0;
};

FilePopularity ComputeInputPopularity(const trace::Trace& trace);
FilePopularity ComputeOutputPopularity(const trace::Trace& trace);

/// Access-vs-size skew (paper Figures 3/4): for each file-size threshold,
/// the fraction of jobs touching files below it and the fraction of stored
/// bytes those files hold.
struct SizeSkewPoint {
  double file_bytes = 0.0;
  double fraction_of_jobs = 0.0;
  double fraction_of_stored_bytes = 0.0;
};
struct SizeSkewCurve {
  std::vector<SizeSkewPoint> points;  // ascending by file_bytes
  double total_stored_bytes = 0.0;
  size_t jobs_with_paths = 0;
};

/// `use_output` selects Figure 4 (output files) over Figure 3 (inputs).
SizeSkewCurve ComputeSizeSkew(const trace::Trace& trace, bool use_output,
                              size_t curve_points = 64);

/// The paper's "80-X rule" (section 4.2), derived from Figures 3/4's two
/// CDFs: find the file size S below which `job_fraction` of jobs' accesses
/// fall, and return the fraction X of stored bytes held by files of size
/// <= S. The paper measures X in [0.01, 0.08] at job_fraction = 0.8
/// (RDBMS folklore says 80-20; MapReduce is 80-1 .. 80-8).
double StoredBytesFractionForJobCoverage(const trace::Trace& trace,
                                         double job_fraction,
                                         bool use_output);

/// Temporal locality (paper Figure 5): intervals between successive reads
/// of the same input path, and between an output being written and later
/// read as an input.
struct ReaccessIntervals {
  stats::EmpiricalCdf input_input;   // seconds
  stats::EmpiricalCdf output_input;  // seconds
};
ReaccessIntervals ComputeReaccessIntervals(const trace::Trace& trace);

/// Re-access job fractions (paper Figure 6): of all jobs with an input
/// path, the fraction whose input was previously read by another job
/// (pre-existing input) or previously written by another job (pre-existing
/// output). The paper measures up to 78% combined.
struct ReaccessFractions {
  double input_reaccess = 0.0;
  double output_reaccess = 0.0;
  size_t jobs_with_paths = 0;
};
ReaccessFractions ComputeReaccessFractions(const trace::Trace& trace);

/// Figures 5 and 6 from one chronological scan, for callers needing both.
struct Reaccess {
  ReaccessIntervals intervals;
  ReaccessFractions fractions;
};
Reaccess ComputeReaccess(const trace::Trace& trace);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_DATA_ACCESS_H_
