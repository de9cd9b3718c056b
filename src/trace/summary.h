#ifndef SWIM_TRACE_SUMMARY_H_
#define SWIM_TRACE_SUMMARY_H_

#include <string>
#include <vector>

#include "trace/trace.h"

namespace swim::trace {

/// One row of the paper's Table 1.
struct TraceSummary {
  std::string name;
  int machines = 0;
  double span_seconds = 0.0;
  int year = 0;
  size_t jobs = 0;
  /// Sum of input + shuffle + output over all jobs ("bytes moved").
  double bytes_moved = 0.0;
  size_t map_only_jobs = 0;
  double median_duration = 0.0;
};

TraceSummary Summarize(const Trace& trace);
/// The same from columns in submit order.
TraceSummary Summarize(const TraceMetadata& metadata,
                       const JobColumns& columns);

/// Renders summaries as an aligned text table matching Table 1's columns.
std::string FormatSummaryTable(const std::vector<TraceSummary>& rows);

}  // namespace swim::trace

#endif  // SWIM_TRACE_SUMMARY_H_
