#ifndef SWIM_TRACE_TRACE_H_
#define SWIM_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "trace/job_columns.h"
#include "trace/job_record.h"

namespace swim::trace {

class ColumnarTraceView;

/// The most jobs a trace holds: the submit-time sort keys index rows with
/// uint32_t.
inline constexpr size_t kMaxJobs = std::numeric_limits<uint32_t>::max();

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

/// An ordered collection of jobs plus metadata. Jobs are kept sorted by
/// submit time (the class maintains this invariant on mutation).
///
/// A trace is backed either by JobRecord rows or, when loaded from an STF1
/// file, by the file's columns (see FromColumns). A column-backed trace
/// builds its rows, interners and id vectors only on first use; columns()
/// reads either backing without building anything.
class Trace {
 public:
  Trace() = default;
  explicit Trace(TraceMetadata metadata) : metadata_(std::move(metadata)) {}

  /// A trace backed by a validated STF1 view that owns its bytes (not a
  /// live mapping). The caller guarantees the view is canonical: rows
  /// valid and sorted by submit time, dictionaries duplicate-free with
  /// non-empty entries, ids in first-appearance order (input path before
  /// output path per row), every entry referenced. LoadTraceColumnar checks
  /// all of this before calling.
  static Trace FromColumns(std::shared_ptr<const ColumnarTraceView> view);

  // Copies and moves transfer the job stream (or share the column
  // backing), metadata, and sortedness, but drop the lazy interned-id
  // state (rebuilt on demand): the synchronization members below are not
  // copyable, and re-interning on first use beats deep-copying arenas.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&& other) noexcept;

  const TraceMetadata& metadata() const { return metadata_; }
  TraceMetadata& mutable_metadata() { return metadata_; }

  /// The rows; a column-backed trace builds them on first call.
  const std::vector<JobRecord>& jobs() const {
    EnsureRows();
    return jobs_;
  }
  size_t size() const {
    return columnar_ != nullptr ? column_rows_ : jobs_.size();
  }
  bool empty() const { return size() == 0; }

  /// Column views over every job, in submit order. A row-backed trace
  /// builds its id indexes first (the id columns are those indexes); a
  /// column-backed one returns its retained columns. Nothing is copied.
  JobColumns columns() const;

  /// Appends a job; re-sorts lazily on the next read if ordering broke.
  void AddJob(JobRecord job);

  /// Bulk replacement; takes ownership and sorts.
  void SetJobs(std::vector<JobRecord> jobs);

  /// Validates every record; returns the first violation.
  Status Validate() const;

  /// Earliest submit time (0 when empty).
  double StartTime() const;
  /// Latest finish time (0 when empty).
  double EndTime() const;
  /// EndTime - StartTime.
  double Span() const;

  // --- Interned id columns ---------------------------------------------
  //
  // Paths and job names are interned to dense uint32_t ids so the hot
  // analysis/storage/replay loops can key flat tables by integer instead
  // of re-hashing HDFS path strings. Ids are assigned in first-appearance
  // order over the submit-sorted job stream (input path before output path
  // per job), so they are deterministic for a given trace regardless of
  // SWIM_THREADS. Input and output paths share one id space — an
  // output later read as an input maps to the same id, which is what the
  // re-access and cache analyses key on. Jobs without the field map to
  // kNoStringId.
  //
  // The path and name indexes are built lazily (and independently — a
  // popularity analysis never pays for name interning and vice versa) on
  // first access, and invalidated by AddJob/SetJobs. Each build is one
  // serial interning pass in submit order; a column-backed trace interns
  // its persisted dictionary in id order and copies its id columns. The
  // lazy builds (rows included) are thread-safe for CONCURRENT CONST
  // READERS: the first accessor to need an index builds it under an
  // internal mutex (double-checked against an atomic flag) and later
  // readers see the published result, so worker threads may share a const
  // Trace freely. Mutation (AddJob/SetJobs) is not synchronized against
  // readers and still requires exclusivity.

  /// Interner over input/output paths; ids index path-keyed tables.
  const StringInterner& path_interner() const {
    EnsurePathIndex();
    return path_interner_;
  }
  /// Interner over job names.
  const StringInterner& name_interner() const {
    EnsureNameIndex();
    return name_interner_;
  }
  /// Per-job id columns, parallel to jobs().
  const std::vector<uint32_t>& input_path_ids() const {
    EnsurePathIndex();
    return input_path_ids_;
  }
  const std::vector<uint32_t>& output_path_ids() const {
    EnsurePathIndex();
    return output_path_ids_;
  }
  const std::vector<uint32_t>& name_ids() const {
    EnsureNameIndex();
    return name_ids_;
  }

  /// Builds both id indexes now instead of on first analytical use (a
  /// column-backed trace interns its dictionaries). The build is serial:
  /// the argument is unused and kept only so existing callers compile.
  void WarmIndexes(int /*unused*/ = 0) const {
    EnsurePathIndex();
    EnsureNameIndex();
  }

 private:
  void EnsureRows() const {
    if (!rows_built_.load(std::memory_order_acquire)) MaterializeRows();
  }
  void MaterializeRows() const;
  void EnsureSorted() const;
  void EnsurePathIndex() const;
  void EnsureNameIndex() const;
  /// Sorts with lazy_mu_ already held (Ensure* helpers compose on it).
  void SortLocked() const;
  /// Builds the rows and drops the column backing, before a mutation.
  void DetachColumns();
  /// Resets the lazy index state (callers hold exclusive access).
  void ClearIndexes();

  TraceMetadata metadata_;
  mutable std::vector<JobRecord> jobs_;
  /// The STF1 backing; null for a row-backed trace. Shared by copies.
  std::shared_ptr<const ColumnarTraceView> columnar_;
  size_t column_rows_ = 0;  // the backing's job count

  /// Serializes the lazy row/sort/index builds; the atomic flags are the
  /// double-checked fast path (acquire load outside the lock publishes the
  /// built vectors/interners to readers).
  mutable std::mutex lazy_mu_;
  mutable std::atomic<bool> rows_built_{true};
  mutable std::atomic<bool> sorted_{true};
  mutable std::atomic<bool> path_indexed_{false};
  mutable std::atomic<bool> name_indexed_{false};

  mutable StringInterner path_interner_;
  mutable StringInterner name_interner_;
  mutable std::vector<uint32_t> input_path_ids_;
  mutable std::vector<uint32_t> output_path_ids_;
  mutable std::vector<uint32_t> name_ids_;
};

}  // namespace swim::trace

#endif  // SWIM_TRACE_TRACE_H_
