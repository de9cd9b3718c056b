#ifndef SWIM_TRACE_JOB_RECORD_H_
#define SWIM_TRACE_JOB_RECORD_H_

#include <cstdint>
#include <string>

namespace swim::trace {

/// One MapReduce job as recorded by Hadoop's per-job history logs - the
/// exact schema the paper analyzes (section 3): "job ID, job name,
/// input/shuffle/output data sizes, duration, submit time, map/reduce task
/// time (slot-seconds), map/reduce task counts, and input/output file
/// paths". String fields may be empty when the source trace lacks them
/// (e.g. FB-2010 has no job names and no output paths).
struct JobRecord {
  uint64_t job_id = 0;
  /// User- or framework-supplied name; empty when unavailable.
  std::string name;

  /// Submission time in seconds from trace start.
  double submit_time = 0.0;
  /// Wall-clock duration in seconds.
  double duration = 0.0;

  double input_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double output_bytes = 0.0;

  int64_t map_tasks = 0;
  int64_t reduce_tasks = 0;
  /// Aggregate task occupancy in slot-seconds (a job with 2 map tasks of
  /// 10 s each has map_task_seconds == 20).
  double map_task_seconds = 0.0;
  double reduce_task_seconds = 0.0;

  /// HDFS paths (hashed in real traces); empty when unavailable.
  std::string input_path;
  std::string output_path;

  /// input + shuffle + output - the paper's per-job "bytes moved".
  double TotalBytes() const {
    return input_bytes + shuffle_bytes + output_bytes;
  }

  /// map + reduce slot-seconds - the paper's per-job "task time".
  double TotalTaskSeconds() const {
    return map_task_seconds + reduce_task_seconds;
  }

  /// Jobs with no reduce stage (no shuffle, no reduce tasks). The paper
  /// finds these in all but two workloads (7-77% of bytes).
  bool IsMapOnly() const {
    return reduce_tasks == 0 && shuffle_bytes == 0.0 &&
           reduce_task_seconds == 0.0;
  }

  double FinishTime() const { return submit_time + duration; }

  friend bool operator==(const JobRecord& a, const JobRecord& b) = default;
};

/// Validates basic invariants (non-negative sizes, times, counts).
/// Returns an explanatory string for the first violated invariant, or an
/// empty string when the record is valid.
std::string ValidateJobRecord(const JobRecord& job);

/// The same invariants over the numeric fields alone, for column sources
/// that have no JobRecord: the violated invariant, or nullptr. Inline: the
/// column validators call it once per row.
inline const char* JobFieldsViolation(double submit_time, double duration,
                                      double input_bytes, double shuffle_bytes,
                                      double output_bytes, int64_t map_tasks,
                                      int64_t reduce_tasks,
                                      double map_task_seconds,
                                      double reduce_task_seconds) {
  if (submit_time < 0.0) return "negative submit_time";
  if (duration < 0.0) return "negative duration";
  if (input_bytes < 0.0) return "negative input_bytes";
  if (shuffle_bytes < 0.0) return "negative shuffle_bytes";
  if (output_bytes < 0.0) return "negative output_bytes";
  if (map_tasks < 0) return "negative map_tasks";
  if (reduce_tasks < 0) return "negative reduce_tasks";
  if (map_task_seconds < 0.0) return "negative map_task_seconds";
  if (reduce_task_seconds < 0.0) return "negative reduce_task_seconds";
  if (map_tasks == 0 && map_task_seconds > 0.0) {
    return "map_task_seconds > 0 with zero map_tasks";
  }
  if (reduce_tasks == 0 && reduce_task_seconds > 0.0) {
    return "reduce_task_seconds > 0 with zero reduce_tasks";
  }
  return nullptr;
}

}  // namespace swim::trace

#endif  // SWIM_TRACE_JOB_RECORD_H_
