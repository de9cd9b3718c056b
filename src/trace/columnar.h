#ifndef SWIM_TRACE_COLUMNAR_H_
#define SWIM_TRACE_COLUMNAR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/file_image.h"
#include "common/span.h"
#include "common/statusor.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace swim::trace {

// ---------------------------------------------------------------------------
// STF1 — the swim binary columnar trace format.
//
// A trace snapshot laid out for mmap: a fixed 64-byte little-endian header,
// a section table, then one 64-byte-aligned payload per section — ten
// numeric job columns, three uint32 dictionary-id columns, and the interned
// path/name dictionaries persisted as offsets + blob. Numeric columns map
// directly into Span<const T> views with zero copy, so opening a trace is
// O(pages touched) instead of O(bytes parsed): the CSV parse tax (field
// split + strtod per row) is paid once at conversion time, never per run.
// Every section carries an XXH64 checksum; see DESIGN.md "Columnar trace
// format" for the layout diagram and verification ladder.
// ---------------------------------------------------------------------------

/// "STF1" in little-endian byte order.
inline constexpr uint32_t kStf1Magic = 0x31465453u;
inline constexpr uint32_t kStf1Version = 1;
/// Every section payload (and the section table) starts on this boundary,
/// so mmap'd column pointers satisfy any scalar (and cache-line) alignment.
inline constexpr size_t kStf1Alignment = 64;
static_assert(kStf1Alignment <= FileImage::kAlignment,
              "a read file image must satisfy the section alignment");

/// Section payloads, in file order. v1 writes exactly these, always.
enum class Stf1SectionKind : uint32_t {
  kJobId = 0,          // uint64 per job
  kSubmitTime,         // double per job
  kDuration,           // double per job
  kInputBytes,         // double per job
  kShuffleBytes,       // double per job
  kOutputBytes,        // double per job
  kMapTasks,           // int64 per job
  kReduceTasks,        // int64 per job
  kMapTaskSeconds,     // double per job
  kReduceTaskSeconds,  // double per job
  kNameIds,            // uint32 per job (kNoStringId when absent)
  kInputPathIds,       // uint32 per job
  kOutputPathIds,      // uint32 per job
  kNameDictOffsets,    // uint64 x (name_count + 1), offsets into the blob
  kNameDictBlob,       // concatenated name bytes, id order
  kPathDictOffsets,    // uint64 x (path_count + 1)
  kPathDictBlob,       // concatenated path bytes, id order
  kTraceName,          // metadata.name bytes
};
inline constexpr size_t kStf1SectionCount = 18;
const char* Stf1SectionKindName(Stf1SectionKind kind);

/// The fixed header at file offset 0. header_checksum covers the preceding
/// 56 bytes; table_checksum covers the section table, whose entries in turn
/// carry per-payload checksums — so validation forms a chain from one
/// 8-byte root to every payload byte.
struct Stf1Header {
  uint32_t magic = kStf1Magic;
  uint32_t version = kStf1Version;
  uint64_t job_count = 0;
  uint32_t section_count = kStf1SectionCount;
  uint32_t flags = 0;  // bit0 has_names, bit1 has_input_paths, bit2 has_output_paths
  int32_t machines = 0;
  int32_t year = 0;
  uint64_t table_offset = 0;
  uint64_t table_bytes = 0;
  uint64_t table_checksum = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(Stf1Header) == 64, "STF1 header must be 64 bytes");

/// One section-table entry.
struct Stf1Section {
  uint32_t kind = 0;
  uint32_t element_size = 0;  // 1, 4, or 8
  uint64_t offset = 0;        // from file start; kStf1Alignment-aligned
  uint64_t bytes = 0;         // payload bytes (excludes alignment padding)
  uint64_t checksum = 0;      // Checksum64 of the payload
};
static_assert(sizeof(Stf1Section) == 32, "STF1 section entry must be 32 bytes");

struct ColumnarOptions {
  /// Map the file; false reads it into memory instead (identical results,
  /// used by tests and by LoadTraceColumnar).
  bool allow_mmap = true;
  /// Verify every data-section checksum before materializing a Trace
  /// (one streaming pass at memory bandwidth). Opening a view never pays
  /// this; it validates only the header / table / dictionary structure.
  bool verify_checksums = true;
  /// Unused: loading is serial. Kept so the benchmark harness compiles.
  int threads = 0;
};

/// A zero-copy window onto an STF1 file. Open() validates the header,
/// section table, and dictionary structure (O(header + dictionaries), not
/// O(file)); numeric columns are exposed as Spans straight into the mapping
/// and fault in lazily as they are touched. The view owns the mapping:
/// Spans and string_views obtained from it are valid only while it lives.
class ColumnarTraceView {
 public:
  ColumnarTraceView() = default;

  /// Maps (or, without allow_mmap, reads) `path` and validates its
  /// structure. Corruption of any validated region yields a structured
  /// error, never a crash; so does a path that is not a regular file.
  static StatusOr<ColumnarTraceView> Open(const std::string& path,
                                          const ColumnarOptions& options = {});

  /// Builds a view over an in-memory encoding (copied to an aligned
  /// buffer). The fuzzer's entry point: no file round-trip per iteration.
  static StatusOr<ColumnarTraceView> FromBytes(std::string_view bytes);

  const TraceMetadata& metadata() const { return metadata_; }
  size_t job_count() const { return job_count_; }
  /// True when backed by an actual mmap (false on the read() fallback).
  bool mapped() const { return image_.mapped(); }
  size_t file_bytes() const { return image_.size(); }

  // Numeric job columns — Spans directly into the mapping, length
  // job_count(). No bytes are copied or faulted until an element is read.
  Span<const uint64_t> job_ids() const;
  Span<const double> submit_times() const;
  Span<const double> durations() const;
  Span<const double> input_bytes() const;
  Span<const double> shuffle_bytes() const;
  Span<const double> output_bytes() const;
  Span<const int64_t> map_tasks() const;
  Span<const int64_t> reduce_tasks() const;
  Span<const double> map_task_seconds() const;
  Span<const double> reduce_task_seconds() const;

  // Dictionary-id columns (kNoStringId marks "field absent").
  Span<const uint32_t> name_ids() const;
  Span<const uint32_t> input_path_ids() const;
  Span<const uint32_t> output_path_ids() const;

  /// Distinct interned strings in each dictionary.
  size_t name_count() const { return name_count_; }
  size_t path_count() const { return path_count_; }

  /// Every column as one JobColumns view. Valid while the view lives.
  JobColumns columns() const;

  /// Verifies every section checksum (one pass over the whole file).
  Status VerifyChecksums() const;

  /// Checks every row: finite values, in-range dictionary ids, the
  /// ValidateJobRecord invariants. The error names the earliest bad row.
  Status ValidateRows() const;

  /// Builds a Trace (ValidateRows first) that owns a copy of the columns.
  /// A file a trace wrote keeps its ids; any other valid file is brought
  /// into the canonical form (see Trace). Does NOT verify checksums; call
  /// VerifyChecksums() first or use LoadTraceColumnar. The argument is
  /// unused and kept so the benchmark harness compiles.
  StatusOr<Trace> Materialize(int /*unused*/ = 0) const;

 private:
  Status Init();
  const unsigned char* SectionData(Stf1SectionKind kind) const {
    return sections_[static_cast<size_t>(kind)];
  }
  size_t SectionBytes(Stf1SectionKind kind) const {
    return section_bytes_[static_cast<size_t>(kind)];
  }

  FileImage image_;

  TraceMetadata metadata_;
  size_t job_count_ = 0;
  size_t name_count_ = 0;
  size_t path_count_ = 0;
  std::array<const unsigned char*, kStf1SectionCount> sections_{};
  std::array<size_t, kStf1SectionCount> section_bytes_{};
  std::array<uint64_t, kStf1SectionCount> section_checksums_{};
};

/// Serializes `trace` to the STF1 byte layout: its columns and
/// dictionaries as they are.
std::string TraceToColumnarBytes(const Trace& trace);

/// Decodes an in-memory STF1 image (copied) exactly as LoadTraceColumnar
/// loads a file.
StatusOr<Trace> TraceFromColumnarBytes(std::string_view bytes,
                                       const ColumnarOptions& options = {});

/// Writes `trace` to `path` in STF1: one buffered write of the full
/// encoding, then a single fsync, so a crash leaves either the old file or
/// a complete new one (never a torn header over valid columns).
Status WriteTraceColumnar(const Trace& trace, const std::string& path);

/// Loads an STF1 file: opens it per `options` (mapped by default), verifies
/// checksums per `options`, and returns Materialize()'s trace, which owns
/// copies of the columns and dictionaries: once the call returns, later
/// changes to the file cannot reach the trace. `options.threads` does not
/// apply here.
StatusOr<Trace> LoadTraceColumnar(const std::string& path,
                                  const ColumnarOptions& options = {});

// ---------------------------------------------------------------------------
// Format auto-sniffing — every tool accepts either format transparently.
// ---------------------------------------------------------------------------

enum class TraceFormat { kCsv, kStf1 };
const char* TraceFormatName(TraceFormat format);

/// Reads the first bytes of `path`: STF1 magic selects kStf1, anything else
/// is presumed CSV and left to the CSV parser's diagnostics. A zero-length
/// file is neither and yields InvalidArgumentError; IoError when the file
/// cannot be opened.
StatusOr<TraceFormat> SniffTraceFormat(const std::string& path);

/// Loads a trace in whichever format `path` holds. CSV honors
/// `parse_options`/`report` exactly as ReadTraceCsv; STF1 ignores the parse
/// mode (the format is checksummed, not repaired), fills `report` with a
/// clean summary, and returns LoadTraceColumnar's trace.
StatusOr<Trace> ReadTraceAuto(const std::string& path,
                              const ParseOptions& parse_options = {},
                              ParseReport* report = nullptr,
                              const ColumnarOptions& columnar_options = {});

/// True when `path`'s extension selects STF1 output (.stf / .stf1).
bool HasColumnarExtension(std::string_view path);

/// Writes CSV or STF1 by extension (HasColumnarExtension).
Status WriteTraceAuto(const Trace& trace, const std::string& path);

}  // namespace swim::trace

#endif  // SWIM_TRACE_COLUMNAR_H_
