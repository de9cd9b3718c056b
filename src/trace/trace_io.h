#ifndef SWIM_TRACE_TRACE_IO_H_
#define SWIM_TRACE_TRACE_IO_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "trace/trace.h"

namespace swim::trace {

/// CSV column order used by ReadTraceCsv / WriteTraceCsv. The first line of
/// a trace file must be exactly this header.
inline constexpr char kTraceCsvHeader[] =
    "job_id,name,submit_time,duration,input_bytes,shuffle_bytes,"
    "output_bytes,map_tasks,reduce_tasks,map_task_seconds,"
    "reduce_task_seconds,input_path,output_path";

/// How the parser reacts to malformed rows. Production history logs are
/// messy (the paper's section 4 traces contain truncated and garbled
/// records); strict mode is for trusted, machine-written files, the other
/// two are for ingesting real-world logs without aborting a multi-GB trace
/// on the first bad line.
enum class ParseMode {
  /// The earliest malformed row aborts the whole parse (historical
  /// behaviour; the reported line number is identical at any thread count).
  kStrict,
  /// Malformed rows are dropped and counted in the ParseReport.
  kSkip,
  /// Value-level problems (unparseable/non-finite numbers, negative sizes,
  /// task-seconds with zero tasks) are patched to the nearest valid value
  /// and the row is kept; structural problems (bad field count, unbalanced
  /// or mid-field quotes, bad job_id) cannot be repaired and are skipped.
  /// Every repaired row still satisfies ValidateJobRecord.
  kRepair,
};

/// Resolves a --on-error flag value ("strict" | "skip" | "repair").
StatusOr<ParseMode> ParseModeFromName(std::string_view name);
const char* ParseModeName(ParseMode mode);

/// Why a row was flagged. Structural categories are never repairable.
enum class ParseErrorKind {
  kUnbalancedQuote = 0,  // record ends inside an open quote
  kMidFieldQuote,        // quote in the middle of a field (ab"cd / "ab"cd)
  kFieldCount,           // row does not have exactly 13 fields
  kBadNumber,            // numeric field unparseable, non-finite, or job_id bad
  kInvalidRecord,        // fields parsed but violate record invariants
};
inline constexpr size_t kParseErrorKinds = 5;
const char* ParseErrorKindName(ParseErrorKind kind);

/// One per-row diagnostic. A row contributes at most one diagnostic (its
/// first problem, scanning fields left to right); repair mode may patch
/// several fields of that row but still reports it once.
struct ParseDiagnostic {
  /// 1-based physical line number where the record starts.
  int line = 0;
  ParseErrorKind kind = ParseErrorKind::kInvalidRecord;
  /// Offending column name; empty for row-level problems (quoting, count).
  std::string field;
  std::string reason;
  /// True when the row was patched and kept (kRepair), false when dropped.
  bool repaired = false;

  std::string ToString() const;
};

struct ParseOptions {
  ParseMode mode = ParseMode::kStrict;
  /// Cap on retained per-line diagnostics (counts are always exact; only
  /// the detailed list is bounded). Diagnostics are kept in line order.
  size_t max_diagnostics = 64;
  /// Parallel shard parse width; 0 = default from SWIM_THREADS / hardware,
  /// 1 = serial. The parsed trace and the ParseReport are byte-identical
  /// at any thread count.
  int threads = 0;
  /// Unused: a parse always builds the id columns. Kept so the benchmark
  /// harness compiles.
  bool warm_indexes = false;
};

/// Structured outcome of a lenient (kSkip / kRepair) parse. All counts are
/// exact; `diagnostics` holds the first `max_diagnostics` flagged rows in
/// line order. Deterministic: byte-identical for a given input at any
/// thread count.
struct ParseReport {
  ParseMode mode = ParseMode::kStrict;
  /// Data rows seen (blank lines and #comments excluded).
  size_t total_rows = 0;
  /// Rows that made it into the trace (includes repaired rows).
  size_t accepted = 0;
  /// Rows dropped as unusable.
  size_t skipped = 0;
  /// Rows patched and kept (subset of accepted).
  size_t repaired = 0;
  /// Flagged rows per category, indexed by ParseErrorKind. A row counts
  /// once, under its first problem.
  std::array<size_t, kParseErrorKinds> error_counts{};
  std::vector<ParseDiagnostic> diagnostics;
  /// Flagged rows beyond max_diagnostics whose details were not retained.
  size_t dropped_diagnostics = 0;

  size_t flagged() const { return skipped + repaired; }
  bool clean() const { return flagged() == 0; }
  /// Multi-line human-readable summary (stable across thread counts).
  std::string ToString() const;
};

/// Serializes a trace to CSV. Fields containing commas, quotes, or
/// newlines are quoted per RFC 4180. Metadata (name/machines/year) is
/// stored in "#key=value" comment lines before the header.
Status WriteTraceCsv(const Trace& trace, const std::string& path);

/// Parses a CSV trace file produced by WriteTraceCsv (or hand-written with
/// the same schema). Strict mode rejects malformed rows with the offending
/// line number; see ParseMode for the lenient modes. `report`, when
/// non-null, receives the structured per-line outcome (useful in kSkip /
/// kRepair; in kStrict it is filled only on success, and is then clean).
/// Quoted fields may contain embedded newlines (records then span physical
/// lines); a trailing '\r' is stripped from each physical line end. A
/// "#machines=" or "#year=" value that is not an integer in [0, INT32_MAX]
/// fails the load in every mode. The file is read with one sized read; a
/// path that is not a regular file (a directory) yields IoError.
StatusOr<Trace> ReadTraceCsv(const std::string& path,
                             const ParseOptions& options,
                             ParseReport* report = nullptr);
StatusOr<Trace> TraceFromCsv(std::string_view csv_text,
                             const ParseOptions& options,
                             ParseReport* report = nullptr);

/// Strict-mode conveniences (historical signatures). `threads` bounds the
/// parallel shard parse as in ParseOptions::threads.
StatusOr<Trace> ReadTraceCsv(const std::string& path, int threads = 0);
StatusOr<Trace> TraceFromCsv(std::string_view csv_text, int threads = 0);

std::string TraceToCsv(const Trace& trace);
/// The same bytes for any columns, rows in their given order.
std::string ColumnsToCsv(const TraceMetadata& metadata,
                         const JobColumns& columns);

}  // namespace swim::trace

#endif  // SWIM_TRACE_TRACE_IO_H_
