#include "trace/job_columns.h"

#include <cmath>

namespace swim::trace {

JobRecord RowAt(const JobColumns& c, size_t i) {
  JobRecord job;
  job.job_id = c.job_id[i];
  job.submit_time = c.submit_time[i];
  job.duration = c.duration[i];
  job.input_bytes = c.input_bytes[i];
  job.shuffle_bytes = c.shuffle_bytes[i];
  job.output_bytes = c.output_bytes[i];
  job.map_tasks = c.map_tasks[i];
  job.reduce_tasks = c.reduce_tasks[i];
  job.map_task_seconds = c.map_task_seconds[i];
  job.reduce_task_seconds = c.reduce_task_seconds[i];
  if (c.name_id[i] != kNoStringId) job.name = c.names[c.name_id[i]];
  if (c.input_path_id[i] != kNoStringId) {
    job.input_path = c.paths[c.input_path_id[i]];
  }
  if (c.output_path_id[i] != kNoStringId) {
    job.output_path = c.paths[c.output_path_id[i]];
  }
  return job;
}

std::optional<RowViolation> FindInvalidRow(const JobColumns& c, size_t begin,
                                           size_t end,
                                           const double* submit_floor) {
  double floor = submit_floor != nullptr ? *submit_floor : 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double submit = c.submit_time[i];
    const double duration = c.duration[i];
    const double input = c.input_bytes[i];
    const double shuffle = c.shuffle_bytes[i];
    const double output = c.output_bytes[i];
    const double map_secs = c.map_task_seconds[i];
    const double reduce_secs = c.reduce_task_seconds[i];
    if (!std::isfinite(submit) || !std::isfinite(duration) ||
        !std::isfinite(input) || !std::isfinite(shuffle) ||
        !std::isfinite(output) || !std::isfinite(map_secs) ||
        !std::isfinite(reduce_secs)) {
      return RowViolation{i, "non-finite value"};
    }
    const uint32_t name = c.name_id[i];
    const uint32_t in_path = c.input_path_id[i];
    const uint32_t out_path = c.output_path_id[i];
    if (name != kNoStringId && name >= c.names.size()) {
      return RowViolation{i, "out-of-range name dictionary id"};
    }
    if (in_path != kNoStringId && in_path >= c.paths.size()) {
      return RowViolation{i, "out-of-range input path dictionary id"};
    }
    if (out_path != kNoStringId && out_path >= c.paths.size()) {
      return RowViolation{i, "out-of-range output path dictionary id"};
    }
    const char* violation = JobFieldsViolation(
        submit, duration, input, shuffle, output, c.map_tasks[i],
        c.reduce_tasks[i], map_secs, reduce_secs);
    if (violation != nullptr) return RowViolation{i, violation};
    if (submit_floor != nullptr) {
      if (submit < floor) {
        return RowViolation{
            i, "submit time runs backwards (append not submit-ordered)"};
      }
      floor = submit;
    }
  }
  return std::nullopt;
}

}  // namespace swim::trace
