#include "trace/summary.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/units.h"
#include "stats/descriptive.h"

namespace swim::trace {

TraceSummary Summarize(const Trace& trace) {
  return Summarize(trace.metadata(), trace.columns());
}

TraceSummary Summarize(const TraceMetadata& metadata,
                       const JobColumns& c) {
  TraceSummary summary;
  summary.name = metadata.name;
  summary.machines = metadata.machines;
  summary.year = metadata.year;
  summary.jobs = c.size;
  if (c.size == 0) return summary;
  // The same expressions as JobRecord's TotalBytes, IsMapOnly and
  // FinishTime, and Trace::Span (latest finish, never below 0, minus the
  // first submit).
  double end = 0.0;
  std::vector<double> durations(c.size);
  for (size_t i = 0; i < c.size; ++i) {
    const double duration = c.duration[i];
    summary.bytes_moved +=
        c.input_bytes[i] + c.shuffle_bytes[i] + c.output_bytes[i];
    if (c.reduce_tasks[i] == 0 && c.shuffle_bytes[i] == 0.0 &&
        c.reduce_task_seconds[i] == 0.0) {
      ++summary.map_only_jobs;
    }
    end = std::max(end, c.submit_time[i] + duration);
    durations[i] = duration;
  }
  summary.span_seconds = end - c.submit_time[0];
  summary.median_duration = stats::Quantile(std::move(durations), 0.5);
  return summary;
}

std::string FormatSummaryTable(const std::vector<TraceSummary>& rows) {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %9s %10s %6s %10s %12s\n",
                "Trace", "Machines", "Length", "Year", "Jobs", "BytesMoved");
  os << line;
  size_t total_jobs = 0;
  double total_bytes = 0.0;
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-10s %9d %10s %6d %10s %12s\n",
                  row.name.c_str(), row.machines,
                  FormatDuration(row.span_seconds).c_str(), row.year,
                  FormatCount(row.jobs).c_str(),
                  FormatBytes(row.bytes_moved).c_str());
    os << line;
    total_jobs += row.jobs;
    total_bytes += row.bytes_moved;
  }
  std::snprintf(line, sizeof(line), "%-10s %9s %10s %6s %10s %12s\n", "Total",
                "-", "-", "-", FormatCount(total_jobs).c_str(),
                FormatBytes(total_bytes).c_str());
  os << line;
  return os.str();
}

}  // namespace swim::trace
