#ifndef SWIM_TRACE_JOB_COLUMNS_H_
#define SWIM_TRACE_JOB_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/interner.h"
#include "trace/job_record.h"

namespace swim::trace {

// ---------------------------------------------------------------------------
// JobColumns — one read-only column view over any trace.
//
// The analysis kernels read a trace column by column. A Trace owns dense
// columns and an STF1 file stores the same columns, so both are described
// by plain element pointers and one row loop serves both without copying.
// ---------------------------------------------------------------------------

/// Dense id -> string lookup over either an STF1 dictionary (offsets into
/// a blob) or a StringInterner.
class DictionaryView {
 public:
  DictionaryView() = default;
  /// Entry i is blob[offsets[i], offsets[i + 1]).
  DictionaryView(const uint64_t* offsets, const char* blob, size_t count)
      : offsets_(offsets), blob_(blob), count_(count) {}
  explicit DictionaryView(const StringInterner& interner)
      : interner_(&interner), count_(interner.size()) {}

  size_t size() const { return count_; }
  /// Requires id < size().
  std::string_view operator[](uint32_t id) const {
    if (interner_ != nullptr) return interner_->NameOf(id);
    return std::string_view(blob_ + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

 private:
  const StringInterner* interner_ = nullptr;
  const uint64_t* offsets_ = nullptr;
  const char* blob_ = nullptr;
  size_t count_ = 0;
};

/// The ten numeric job fields, the three dictionary-id columns
/// (kNoStringId marks an absent field) and the two dictionaries, in submit
/// order; element i of each column is job i. A view: valid while the trace
/// or STF1 view it came from lives and is not mutated.
struct JobColumns {
  size_t size = 0;
  const uint64_t* job_id = nullptr;
  const double* submit_time = nullptr;
  const double* duration = nullptr;
  const double* input_bytes = nullptr;
  const double* shuffle_bytes = nullptr;
  const double* output_bytes = nullptr;
  const int64_t* map_tasks = nullptr;
  const int64_t* reduce_tasks = nullptr;
  const double* map_task_seconds = nullptr;
  const double* reduce_task_seconds = nullptr;
  const uint32_t* name_id = nullptr;
  const uint32_t* input_path_id = nullptr;
  const uint32_t* output_path_id = nullptr;
  DictionaryView names;
  DictionaryView paths;
};

/// Row i of `c` as a JobRecord, its dictionary ids resolved to strings.
JobRecord RowAt(const JobColumns& c, size_t i);

/// The first row of a column range that fails the admission bar.
struct RowViolation {
  size_t row = 0;
  std::string what;
};

/// Checks rows [begin, end) against the bar every trace source shares:
/// finite values, in-range dictionary ids, then the ValidateJobRecord
/// invariants. When `submit_floor` is given, submit times must also be
/// nondecreasing from *submit_floor on. Returns the earliest failing row;
/// callers wrap it in their own status code and message prefix.
std::optional<RowViolation> FindInvalidRow(
    const JobColumns& columns, size_t begin, size_t end,
    const double* submit_floor = nullptr);

}  // namespace swim::trace

#endif  // SWIM_TRACE_JOB_COLUMNS_H_
