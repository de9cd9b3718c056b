#include "trace/job_columns.h"

#include <cmath>

namespace swim::trace {

std::optional<RowViolation> FindInvalidRow(const JobColumns& c, size_t begin,
                                           size_t end,
                                           const double* submit_floor) {
  std::optional<RowViolation> found;
  WithColumnLayout(c, [&](auto layout) {
    auto get = [&](const auto& column, size_t i) {
      return layout.Get(column, i);
    };
    double floor = submit_floor != nullptr ? *submit_floor : 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double submit = get(c.submit_time, i);
      const double duration = get(c.duration, i);
      const double input = get(c.input_bytes, i);
      const double shuffle = get(c.shuffle_bytes, i);
      const double output = get(c.output_bytes, i);
      const double map_secs = get(c.map_task_seconds, i);
      const double reduce_secs = get(c.reduce_task_seconds, i);
      if (!std::isfinite(submit) || !std::isfinite(duration) ||
          !std::isfinite(input) || !std::isfinite(shuffle) ||
          !std::isfinite(output) || !std::isfinite(map_secs) ||
          !std::isfinite(reduce_secs)) {
        found = RowViolation{i, "non-finite value"};
        return;
      }
      const uint32_t name = get(c.name_id, i);
      const uint32_t in_path = get(c.input_path_id, i);
      const uint32_t out_path = get(c.output_path_id, i);
      if (name != kNoStringId && name >= c.names.size()) {
        found = RowViolation{i, "out-of-range name dictionary id"};
        return;
      }
      if (in_path != kNoStringId && in_path >= c.paths.size()) {
        found = RowViolation{i, "out-of-range input path dictionary id"};
        return;
      }
      if (out_path != kNoStringId && out_path >= c.paths.size()) {
        found = RowViolation{i, "out-of-range output path dictionary id"};
        return;
      }
      const char* violation = JobFieldsViolation(
          submit, duration, input, shuffle, output, get(c.map_tasks, i),
          get(c.reduce_tasks, i), map_secs, reduce_secs);
      if (violation != nullptr) {
        found = RowViolation{i, violation};
        return;
      }
      if (submit_floor != nullptr) {
        if (submit < floor) {
          found = RowViolation{
              i, "submit time runs backwards (append not submit-ordered)"};
          return;
        }
        floor = submit;
      }
    }
  });
  return found;
}

std::vector<JobRecord> BuildRows(const JobColumns& c) {
  std::vector<JobRecord> jobs(c.size);
  for (size_t i = 0; i < c.size; ++i) {
    JobRecord& job = jobs[i];
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
  }
  return jobs;
}

}  // namespace swim::trace
