#include "core/synth/fidelity.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/analysis/temporal.h"
#include "stats/empirical_cdf.h"

namespace swim::core {
namespace {

/// One numeric column of a trace's columns.
using Column = const double* trace::JobColumns::*;

DimensionFidelity CompareDimension(const std::string& name,
                                   const trace::Trace& source,
                                   const trace::Trace& synthesized,
                                   Column column) {
  auto values = [&](const trace::Trace& t) {
    const trace::JobColumns c = t.columns();
    const double* first = c.*column;
    return stats::EmpiricalCdf(std::vector<double>(first, first + c.size));
  };
  stats::EmpiricalCdf a = values(source);
  stats::EmpiricalCdf b = values(synthesized);
  DimensionFidelity result;
  result.dimension = name;
  result.ks_distance = stats::EmpiricalCdf::KsDistance(a, b);
  result.source_median = a.median();
  result.synth_median = b.median();
  return result;
}

}  // namespace

FidelityReport CompareTraces(const trace::Trace& source,
                             const trace::Trace& synthesized) {
  FidelityReport report;
  const std::pair<const char*, Column> dims[] = {
      {"input_bytes", &trace::JobColumns::input_bytes},
      {"shuffle_bytes", &trace::JobColumns::shuffle_bytes},
      {"output_bytes", &trace::JobColumns::output_bytes},
      {"duration", &trace::JobColumns::duration},
      {"map_task_seconds", &trace::JobColumns::map_task_seconds},
      {"reduce_task_seconds", &trace::JobColumns::reduce_task_seconds},
  };
  for (const auto& [name, column] : dims) {
    DimensionFidelity d = CompareDimension(name, source, synthesized, column);
    report.max_ks = std::max(report.max_ks, d.ks_distance);
    report.dimensions.push_back(std::move(d));
  }
  const SubmissionSeries source_series = ComputeSubmissionSeries(source);
  const SubmissionSeries synth_series = ComputeSubmissionSeries(synthesized);
  report.source_bytes_compute_corr =
      ComputeSeriesCorrelations(source_series).bytes_task_seconds;
  report.synth_bytes_compute_corr =
      ComputeSeriesCorrelations(synth_series).bytes_task_seconds;
  report.source_peak_to_median =
      ComputeBurstiness(source_series).task_seconds.PeakToMedian();
  report.synth_peak_to_median =
      ComputeBurstiness(synth_series).task_seconds.PeakToMedian();
  return report;
}

std::string FormatFidelity(const FidelityReport& report) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %8s %14s %14s\n", "dimension",
                "KS", "median(src)", "median(synth)");
  os << line;
  for (const auto& d : report.dimensions) {
    std::snprintf(line, sizeof(line), "%-20s %8.3f %14.3g %14.3g\n",
                  d.dimension.c_str(), d.ks_distance, d.source_median,
                  d.synth_median);
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "bytes-compute corr: src=%.2f synth=%.2f | peak:median "
                "src=%.0f:1 synth=%.0f:1 | max KS=%.3f\n",
                report.source_bytes_compute_corr,
                report.synth_bytes_compute_corr,
                report.source_peak_to_median, report.synth_peak_to_median,
                report.max_ks);
  os << line;
  return os.str();
}

}  // namespace swim::core
