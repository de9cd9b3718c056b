#ifndef SWIM_TRACE_FILTERS_H_
#define SWIM_TRACE_FILTERS_H_

#include "trace/trace.h"

namespace swim::trace {

/// Jobs submitted in [begin, end). Metadata is copied. This is the paper's
/// trace extraction step ("a time-range selection of per-job Hadoop history
/// logs"); it also exhibits the boundary effect the paper notes - jobs
/// straddling the range end keep their full duration.
Trace FilterByTimeRange(const Trace& trace, double begin, double end);

}  // namespace swim::trace

#endif  // SWIM_TRACE_FILTERS_H_
