#ifndef SWIM_TRACE_JOB_COLUMNS_H_
#define SWIM_TRACE_JOB_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "trace/job_record.h"

namespace swim::trace {

// ---------------------------------------------------------------------------
// JobColumns — one read-only column view over any trace.
//
// The analysis kernels read a trace column by column. An STF1 file already
// stores columns (stride = element size); a row-backed Trace stores
// JobRecords, whose fields form columns with stride sizeof(JobRecord). Both
// are described by the same strided views, so one row loop serves both and
// neither source copies anything to be analyzed.
// ---------------------------------------------------------------------------

/// Element i of a strided column lives `i * stride` bytes past the first.
template <typename T>
class StridedColumn {
 public:
  StridedColumn() = default;
  StridedColumn(const T* first, size_t stride)
      : first_(reinterpret_cast<const unsigned char*>(first)),
        stride_(stride) {}

  T operator[](size_t i) const { return At(i, stride_); }

  size_t stride() const { return stride_; }
  /// Element i when the caller knows the stride (see ColumnLayout).
  T At(size_t i, size_t stride) const {
    return *reinterpret_cast<const T*>(first_ + i * stride);
  }

 private:
  const unsigned char* first_ = nullptr;
  size_t stride_ = sizeof(T);
};

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
/// order. A view: valid while the trace or STF1 view it came from lives
/// and is not mutated.
struct JobColumns {
  size_t size = 0;
  StridedColumn<uint64_t> job_id;
  StridedColumn<double> submit_time;
  StridedColumn<double> duration;
  StridedColumn<double> input_bytes;
  StridedColumn<double> shuffle_bytes;
  StridedColumn<double> output_bytes;
  StridedColumn<int64_t> map_tasks;
  StridedColumn<int64_t> reduce_tasks;
  StridedColumn<double> map_task_seconds;
  StridedColumn<double> reduce_task_seconds;
  StridedColumn<uint32_t> name_id;
  StridedColumn<uint32_t> input_path_id;
  StridedColumn<uint32_t> output_path_id;
  DictionaryView names;
  DictionaryView paths;
};

/// Column reads at compile-time strides, for row loops. Both producers lay
/// columns out the same way: the 4-byte id columns are dense and every
/// 8-byte column shares one row stride, sizeof(double) for STF1 and
/// sizeof(JobRecord) for rows. kRowStride is that stride; 0 reads each
/// column's own stride.
template <size_t kRowStride>
struct ColumnLayout {
  template <typename T>
  static T Get(const StridedColumn<T>& column, size_t i) {
    if constexpr (kRowStride == 0) {
      return column[i];
    } else {
      return column.At(i, sizeof(T) == 8 ? kRowStride : sizeof(T));
    }
  }
};

/// Calls `body(ColumnLayout<S>{})` with S the row stride of `c` when it is
/// a producer's, else S = 0, so the loop in `body` indexes with constant
/// strides: measurably faster than a stride loaded per read.
template <typename Body>
void WithColumnLayout(const JobColumns& c, Body&& body) {
  const size_t row = c.submit_time.stride();
  const bool shared =
      c.job_id.stride() == row && c.duration.stride() == row &&
      c.input_bytes.stride() == row && c.shuffle_bytes.stride() == row &&
      c.output_bytes.stride() == row && c.map_tasks.stride() == row &&
      c.reduce_tasks.stride() == row && c.map_task_seconds.stride() == row &&
      c.reduce_task_seconds.stride() == row &&
      c.name_id.stride() == sizeof(uint32_t) &&
      c.input_path_id.stride() == sizeof(uint32_t) &&
      c.output_path_id.stride() == sizeof(uint32_t);
  if (shared && row == sizeof(double)) {
    body(ColumnLayout<sizeof(double)>{});
  } else if (shared && row == sizeof(JobRecord)) {
    body(ColumnLayout<sizeof(JobRecord)>{});
  } else {
    body(ColumnLayout<0>{});
  }
}

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

/// Builds JobRecords for every row, resolving dictionary ids to strings.
std::vector<JobRecord> BuildRows(const JobColumns& columns);

}  // namespace swim::trace

#endif  // SWIM_TRACE_JOB_COLUMNS_H_
