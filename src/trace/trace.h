#ifndef SWIM_TRACE_TRACE_H_
#define SWIM_TRACE_TRACE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "trace/job_columns.h"
#include "trace/job_record.h"

namespace swim::trace {

/// The most jobs a trace holds: the submit-time sort keys index rows with
/// uint32_t.
inline constexpr size_t kMaxJobs = std::numeric_limits<uint32_t>::max();

/// The trace horizon (100 years): a job whose submit or finish lies more
/// than this many hours after the first submit (or, in a replay, after time
/// zero) fails analysis and replay with InvalidArgumentError before any
/// hourly series is sized. A fixed limit, not an option: past it the hourly
/// buckets alone would take gigabytes.
inline constexpr double kMaxTraceHours = 100 * 8766.0;

/// Cluster-level metadata accompanying a trace (Table 1 columns that are
/// not derivable from the job stream itself).
struct TraceMetadata {
  /// Workload label, e.g. "FB-2009" or "CC-b".
  std::string name;
  /// Machines in the source cluster (0 when unknown).
  int machines = 0;
  /// Calendar year of collection (0 when unknown).
  int year = 0;
  /// Which optional dimensions the trace carries.
  bool has_names = true;
  bool has_input_paths = true;
  bool has_output_paths = true;
};

/// Interns `text` into `dictionary`; the empty string (an absent field) is
/// kNoStringId and is never interned.
inline uint32_t InternField(std::string_view text, StringInterner& dictionary) {
  return text.empty() ? kNoStringId : dictionary.Intern(text);
}

/// The columns a Trace owns: the ten numeric job fields and the three
/// dictionary-id columns (kNoStringId marks an absent field), one element
/// per job. Producers fill these directly and hand them to Trace.
struct TraceColumns {
  std::vector<uint64_t> job_id;
  std::vector<double> submit_time;
  std::vector<double> duration;
  std::vector<double> input_bytes;
  std::vector<double> shuffle_bytes;
  std::vector<double> output_bytes;
  std::vector<int64_t> map_tasks;
  std::vector<int64_t> reduce_tasks;
  std::vector<double> map_task_seconds;
  std::vector<double> reduce_task_seconds;
  std::vector<uint32_t> name_id;
  std::vector<uint32_t> input_path_id;
  std::vector<uint32_t> output_path_id;

  size_t size() const { return job_id.size(); }

  /// Resizes every column to `rows`; storage it allocates is advised onto
  /// huge pages before the first touch.
  void Resize(size_t rows);

  /// Row `row` takes `job`'s numeric fields (its strings are ignored).
  void SetNumbers(size_t row, const JobRecord& job);

  /// Row `row` takes `job`, its strings interned into `names` and `paths`
  /// (input path before output path).
  void SetJob(size_t row, const JobRecord& job, StringInterner& names,
              StringInterner& paths);

  /// Appends row `row` of `from`, ids as they are.
  void AppendRow(const JobColumns& from, size_t row);

  /// A view of these columns whose ids index `names` and `paths`.
  JobColumns View(const StringInterner& names,
                  const StringInterner& paths) const;

  /// Calls `f(column)` for every column, in STF1 section order.
  template <typename F>
  void ForEach(F&& f) {
    f(job_id);
    f(submit_time);
    f(duration);
    f(input_bytes);
    f(shuffle_bytes);
    f(output_bytes);
    f(map_tasks);
    f(reduce_tasks);
    f(map_task_seconds);
    f(reduce_task_seconds);
    f(name_id);
    f(input_path_id);
    f(output_path_id);
  }
};

/// An ordered collection of jobs plus metadata: dense columns and two
/// dictionaries, job names and paths, in one canonical form. Jobs are
/// sorted by submit time (stable: jobs submitted at the same time keep
/// their order of arrival), and dictionary ids are assigned in first
/// appearance over that order, input path before output path per job.
/// Input and output paths share one id space, so an output later read as
/// an input has the same id, which is what the re-access and cache
/// analyses key on. Every dictionary entry is referenced, non-empty and
/// unique. This is STF1's canonical form, so a file written from a trace
/// loads back with the same ids, and ids are the same at any SWIM_THREADS.
///
/// A const Trace is safe to share between threads; mutation needs
/// exclusive access.
class Trace {
 public:
  Trace() = default;
  explicit Trace(TraceMetadata metadata) : metadata_(std::move(metadata)) {}

  /// A trace over `columns`, whose ids index `names` and `paths`. Rows and
  /// ids may come in any order: rows are sorted stably by submit time, ids
  /// renumbered by first appearance and unreferenced entries dropped.
  /// Input already in that form (what every producer emits) costs two
  /// integer passes. Each id must be kNoStringId or index a non-empty
  /// entry of its dictionary, and all columns must have one length.
  Trace(TraceMetadata metadata, TraceColumns columns, StringInterner names,
        StringInterner paths);

  const TraceMetadata& metadata() const { return metadata_; }
  TraceMetadata& mutable_metadata() { return metadata_; }

  size_t size() const { return columns_.size(); }
  bool empty() const { return size() == 0; }

  /// Column views over every job, in submit order. Nothing is copied.
  JobColumns columns() const;
  /// The job-name and path dictionaries the id columns index.
  const StringInterner& names() const { return names_; }
  const StringInterner& paths() const { return paths_; }

  /// Job i as a JobRecord, its strings resolved.
  JobRecord JobAt(size_t i) const;

  /// Every job as a JobRecord, built on each call: O(n) rows with their
  /// strings. For tests and the benchmark harness; library code reads
  /// columns() or JobAt().
  std::vector<JobRecord> jobs() const;

  /// Appends a job, interning its strings. A job submitted before the last
  /// one re-sorts the trace and renumbers its ids (O(n log n)).
  void AddJob(const JobRecord& job);

  /// Replaces every job: orders them by submit time (stably), then interns
  /// their strings once.
  void SetJobs(std::vector<JobRecord> jobs);

  /// A no-op kept for the benchmark harness: ids are built with the trace.
  void WarmIndexes(int /*unused*/ = 0) const {}

  /// Latest finish time (never below 0; 0 when empty).
  double EndTime() const;
  /// EndTime minus the first submit time.
  double Span() const;

 private:
  /// Brings rows and ids into the canonical form described above.
  void Canonicalize();

  TraceMetadata metadata_;
  TraceColumns columns_;
  StringInterner names_;
  StringInterner paths_;
};

}  // namespace swim::trace

#endif  // SWIM_TRACE_TRACE_H_
