#include "core/synth/fidelity.h"

#include <cstdio>
#include <functional>
#include <sstream>

#include "core/analysis/temporal.h"
#include "stats/empirical_cdf.h"

namespace swim::core {
namespace {

using Extractor = std::function<double(const trace::JobRecord&)>;

DimensionFidelity CompareDimension(const std::string& name,
                                   const trace::Trace& source,
                                   const trace::Trace& synthesized,
                                   const Extractor& extractor) {
  auto values = [&](const trace::Trace& t) {
    std::vector<double> v;
    v.reserve(t.size());
    for (const auto& job : t.jobs()) v.push_back(extractor(job));
    return stats::EmpiricalCdf(std::move(v));
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
  const std::vector<std::pair<std::string, Extractor>> dims = {
      {"input_bytes", [](const auto& j) { return j.input_bytes; }},
      {"shuffle_bytes", [](const auto& j) { return j.shuffle_bytes; }},
      {"output_bytes", [](const auto& j) { return j.output_bytes; }},
      {"duration", [](const auto& j) { return j.duration; }},
      {"map_task_seconds", [](const auto& j) { return j.map_task_seconds; }},
      {"reduce_task_seconds",
       [](const auto& j) { return j.reduce_task_seconds; }},
  };
  for (const auto& [name, extractor] : dims) {
    DimensionFidelity d =
        CompareDimension(name, source, synthesized, extractor);
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
