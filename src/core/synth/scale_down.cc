#include "core/synth/scale_down.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace swim::core {

StatusOr<trace::Trace> ScaleDownTrace(const trace::Trace& trace,
                                      const ScaleDownOptions& options) {
  if (options.job_fraction <= 0.0 || options.job_fraction > 1.0) {
    return InvalidArgumentError("job_fraction must be in (0, 1]");
  }
  if (options.time_factor <= 0.0) {
    return InvalidArgumentError("time_factor must be positive");
  }
  if (options.data_factor <= 0.0) {
    return InvalidArgumentError("data_factor must be positive");
  }
  Pcg32 rng(options.seed, /*stream=*/0x5ca1e);
  const trace::JobColumns c = trace.columns();
  trace::TraceColumns kept;
  for (size_t i = 0; i < c.size; ++i) {
    if (options.job_fraction < 1.0 &&
        !rng.NextBernoulli(options.job_fraction)) {
      continue;
    }
    kept.AppendRow(c, i);
    kept.submit_time.back() *= options.time_factor;
    kept.input_bytes.back() *= options.data_factor;
    kept.shuffle_bytes.back() *= options.data_factor;
    kept.output_bytes.back() *= options.data_factor;
    kept.map_task_seconds.back() *= options.data_factor;
    kept.reduce_task_seconds.back() *= options.data_factor;
    if (options.data_factor < 1.0) {
      // Fewer/smaller tasks when per-job work shrinks; keep at least one
      // map task, and one reduce task for jobs that had a reduce stage.
      int64_t& maps = kept.map_tasks.back();
      maps = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(static_cast<double>(maps) *
                                               options.data_factor)));
      int64_t& reduces = kept.reduce_tasks.back();
      if (reduces > 0) {
        reduces = std::max<int64_t>(
            1, static_cast<int64_t>(std::llround(
                   static_cast<double>(reduces) * options.data_factor)));
      }
    }
  }
  return trace::Trace(trace.metadata(), std::move(kept), trace.names(),
                      trace.paths());
}

}  // namespace swim::core
