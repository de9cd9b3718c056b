#include "trace/job_record.h"

namespace swim::trace {

std::string ValidateJobRecord(const JobRecord& job) {
  const char* violation = JobFieldsViolation(
      job.submit_time, job.duration, job.input_bytes, job.shuffle_bytes,
      job.output_bytes, job.map_tasks, job.reduce_tasks, job.map_task_seconds,
      job.reduce_task_seconds);
  return violation != nullptr ? violation : "";
}

}  // namespace swim::trace
