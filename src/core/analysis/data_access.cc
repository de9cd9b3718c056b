#include "core/analysis/data_access.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/interner.h"
#include "core/analysis/accumulators.h"
#include "stats/descriptive.h"
#include "stats/radix_sort.h"

namespace swim::core {
namespace {

// All path-keyed tables in this file are dense vectors indexed by the
// trace's interned path ids (see Trace::path_interner), read through
// Trace::columns(): one array index per touch instead of a string hash.
// Ids are assigned in first-appearance order, so every loop below is
// deterministic.

trace::StridedColumn<uint32_t> PathIds(const trace::JobColumns& c,
                                       bool use_output) {
  return use_output ? c.output_path_id : c.input_path_id;
}

FilePopularity ComputePopularity(const trace::Trace& trace, bool use_output) {
  const trace::JobColumns c = trace.columns();
  const trace::StridedColumn<uint32_t> ids = PathIds(c, use_output);
  stats::OnlineZipf counts;
  for (size_t i = 0; i < c.size; ++i) {
    if (ids[i] != kNoStringId) counts.Add(ids[i]);
  }
  return PopularityFromZipf(counts);
}

/// Per-path (final) file size: the maximum bytes any job moved through the
/// path, dense-indexed by path id; entries never touched stay negative.
std::vector<double> FileSizesById(const trace::JobColumns& c,
                                  bool use_output) {
  const trace::StridedColumn<uint32_t> ids = PathIds(c, use_output);
  const trace::StridedColumn<double> bytes =
      use_output ? c.output_bytes : c.input_bytes;
  std::vector<double> file_sizes(c.paths.size(), -1.0);
  for (size_t i = 0; i < c.size; ++i) {
    const uint32_t id = ids[i];
    if (id == kNoStringId) continue;
    file_sizes[id] = std::max(file_sizes[id], bytes[i]);
  }
  return file_sizes;
}

/// Per job with such a path, the (final) size of the file it accessed.
std::vector<double> JobFileSizes(const trace::JobColumns& c, bool use_output,
                                 const std::vector<double>& file_sizes) {
  const trace::StridedColumn<uint32_t> ids = PathIds(c, use_output);
  std::vector<double> job_file_sizes;
  job_file_sizes.reserve(c.size);
  for (size_t i = 0; i < c.size; ++i) {
    if (ids[i] != kNoStringId) job_file_sizes.push_back(file_sizes[ids[i]]);
  }
  return job_file_sizes;
}

/// Drives one ReaccessScan over the trace in submit order, handing each
/// read's gaps to `on_read`; returns the Figure 6 fractions.
template <typename OnRead>
ReaccessFractions ScanReaccess(const trace::Trace& trace, OnRead&& on_read) {
  const trace::JobColumns c = trace.columns();
  ReaccessScan scan;
  scan.Reserve(c.paths.size());
  for (size_t i = 0; i < c.size; ++i) {
    const double submit = c.submit_time[i];
    on_read(scan.Observe(submit, submit + c.duration[i], c.input_path_id[i],
                         c.output_path_id[i]));
  }
  return scan.Fractions();
}

}  // namespace

stats::EmpiricalCdf ColumnCdf(trace::StridedColumn<double> column,
                              size_t size) {
  std::vector<double> values(size);
  for (size_t i = 0; i < size; ++i) values[i] = column[i];
  stats::RadixSortDoubles(&values);
  return stats::EmpiricalCdf::FromSorted(std::move(values));
}

DataSizeCdfs ComputeDataSizeCdfs(const trace::Trace& trace) {
  const trace::JobColumns columns = trace.columns();
  return DataSizeCdfs{ColumnCdf(columns.input_bytes, columns.size),
                      ColumnCdf(columns.shuffle_bytes, columns.size),
                      ColumnCdf(columns.output_bytes, columns.size)};
}

FilePopularity ComputeInputPopularity(const trace::Trace& trace) {
  return ComputePopularity(trace, /*use_output=*/false);
}

FilePopularity ComputeOutputPopularity(const trace::Trace& trace) {
  return ComputePopularity(trace, /*use_output=*/true);
}

SizeSkewCurve ComputeSizeSkew(const trace::Trace& trace, bool use_output,
                              size_t curve_points) {
  SizeSkewCurve curve;
  // Per-file stored size, then per-job the (final) size of its file.
  const trace::JobColumns c = trace.columns();
  std::vector<double> file_sizes = FileSizesById(c, use_output);
  std::vector<double> job_file_sizes = JobFileSizes(c, use_output, file_sizes);
  curve.jobs_with_paths = job_file_sizes.size();
  if (job_file_sizes.empty()) return curve;

  std::vector<double> stored;
  stored.reserve(file_sizes.size());
  for (double bytes : file_sizes) {
    if (bytes < 0.0) continue;
    stored.push_back(bytes);
    curve.total_stored_bytes += bytes;
  }
  std::sort(job_file_sizes.begin(), job_file_sizes.end());
  std::sort(stored.begin(), stored.end());
  std::vector<double> stored_cumulative(stored.size());
  double running = 0.0;
  for (size_t i = 0; i < stored.size(); ++i) {
    running += stored[i];
    stored_cumulative[i] = running;
  }

  double lo = std::max(1.0, job_file_sizes.front());
  double hi = std::max(lo, job_file_sizes.back());
  double log_lo = std::log10(lo);
  double log_hi = std::log10(hi);
  for (size_t i = 0; i < curve_points; ++i) {
    double t = curve_points > 1
                   ? static_cast<double>(i) / static_cast<double>(curve_points - 1)
                   : 1.0;
    SizeSkewPoint point;
    point.file_bytes = std::pow(10.0, log_lo + t * (log_hi - log_lo));
    auto job_it = std::upper_bound(job_file_sizes.begin(),
                                   job_file_sizes.end(), point.file_bytes);
    point.fraction_of_jobs =
        static_cast<double>(job_it - job_file_sizes.begin()) /
        static_cast<double>(job_file_sizes.size());
    auto stored_it =
        std::upper_bound(stored.begin(), stored.end(), point.file_bytes);
    size_t index = static_cast<size_t>(stored_it - stored.begin());
    double bytes_below = index == 0 ? 0.0 : stored_cumulative[index - 1];
    point.fraction_of_stored_bytes =
        curve.total_stored_bytes > 0.0 ? bytes_below / curve.total_stored_bytes
                                       : 0.0;
    curve.points.push_back(point);
  }
  return curve;
}

double StoredBytesFractionForJobCoverage(const trace::Trace& trace,
                                         double job_fraction,
                                         bool use_output) {
  // Per-file (final) sizes and, per job, the size of the file it accessed.
  const trace::JobColumns c = trace.columns();
  std::vector<double> file_sizes = FileSizesById(c, use_output);
  std::vector<double> job_file_sizes = JobFileSizes(c, use_output, file_sizes);
  if (job_file_sizes.empty()) return 0.0;

  // Size threshold S below which `job_fraction` of accesses fall ...
  std::sort(job_file_sizes.begin(), job_file_sizes.end());
  double threshold = stats::QuantileSorted(job_file_sizes, job_fraction);
  // ... and the share of stored bytes held by files of size <= S.
  double covered_bytes = 0.0;
  double total_bytes = 0.0;
  for (double bytes : file_sizes) {
    if (bytes < 0.0) continue;
    total_bytes += bytes;
    if (bytes <= threshold) covered_bytes += bytes;
  }
  return total_bytes > 0.0 ? covered_bytes / total_bytes : 0.0;
}

Reaccess ComputeReaccess(const trace::Trace& trace) {
  std::vector<double> input_input;
  std::vector<double> output_input;
  Reaccess result;
  result.fractions = ScanReaccess(trace, [&](const ReaccessGaps& gaps) {
    if (gaps.input_input >= 0.0) input_input.push_back(gaps.input_input);
    if (gaps.output_input >= 0.0) output_input.push_back(gaps.output_input);
  });
  result.intervals =
      ReaccessIntervals{stats::EmpiricalCdf(std::move(input_input)),
                        stats::EmpiricalCdf(std::move(output_input))};
  return result;
}

ReaccessIntervals ComputeReaccessIntervals(const trace::Trace& trace) {
  return ComputeReaccess(trace).intervals;
}

ReaccessFractions ComputeReaccessFractions(const trace::Trace& trace) {
  return ScanReaccess(trace, [](const ReaccessGaps&) {});
}

}  // namespace swim::core
