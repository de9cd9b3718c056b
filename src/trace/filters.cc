#include "trace/filters.h"

namespace swim::trace {

Trace FilterByTimeRange(const Trace& trace, double begin, double end) {
  const JobColumns c = trace.columns();
  TraceColumns kept;
  for (size_t i = 0; i < c.size; ++i) {
    if (c.submit_time[i] >= begin && c.submit_time[i] < end) {
      kept.AppendRow(c, i);
    }
  }
  return Trace(trace.metadata(), std::move(kept), trace.names(),
               trace.paths());
}

}  // namespace swim::trace
