#ifndef SWIM_CORE_ANALYSIS_FOLLOW_H_
#define SWIM_CORE_ANALYSIS_FOLLOW_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/interner.h"
#include "common/statusor.h"
#include "core/analysis/streaming.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace swim::core {

// ---------------------------------------------------------------------------
// Trace following — incremental analysis of a growing trace file.
//
// TraceFollower tails one trace file (STF1 or CSV, sniffed once) and folds
// newly appended jobs into a StreamingAnalyzer, so each Poll() costs
// O(new rows) analysis work instead of a full re-read. Drain() is the same
// poll for a file that is complete; `swim_analyze --stream` is one Drain().
//
//  - STF1: producers grow an STF1 trace by rewriting the snapshot with more
//    rows (the format is a single checksummed image, not a log). Poll()
//    re-opens the file — O(header + dictionaries), the columns are mmap'd
//    and never scanned — verifies the already-consumed prefix is intact via
//    spot checks (first/last consumed job id + submit time unchanged,
//    dictionaries only ever grow), and streams only rows past the consumed
//    mark. Section checksums are NOT re-verified per poll (that is O(file));
//    for an integrity audit, convert the file with `swim_convert`, which
//    verifies every section checksum on input unless given --no-verify.
//  - CSV: Poll() reads the bytes past the consumed offset (FileImage) and
//    cuts them after the last whole record (trace::LastCsvRecordEnd, the
//    batch parser's own record scanner); nothing is consumed until the
//    header is there (trace::CsvPrologueEnds). Later chunks are parsed
//    behind the metadata so far and the header, numbered from their first
//    file line, so a followed file parses exactly as a batch load. The
//    first chunk's dictionaries become the follower's; a later chunk's ids
//    are mapped onto them with one integer table per dictionary.
//
// Either way a poll that observes a malformed state (shrunk file, mutated
// prefix, corrupt header, unparseable chunk, out-of-order appends) returns
// a structured error WITHOUT disturbing the analyzer: the already-folded
// report stays valid, and a later poll retries from the same consumed mark
// — so a producer crash mid-write only delays the tail, never poisons the
// analysis.
// ---------------------------------------------------------------------------

struct FollowOptions {
  StreamingOptions streaming;
  /// Row admission for CSV chunks (strict by default; kSkip and kRepair
  /// drop or patch malformed rows and count them in FollowPoll::ingest).
  trace::ParseOptions csv_parse;
};

/// Outcome of one Poll().
struct FollowPoll {
  /// Rows folded by this poll (0 when the file has not grown).
  size_t new_jobs = 0;
  /// Total rows folded since Open().
  size_t total_jobs = 0;
  /// The ingest outcome of the CSV rows this poll consumed, diagnostics
  /// numbered by file line. Empty for STF1, which is not repaired.
  trace::ParseReport ingest;
};

class TraceFollower {
 public:
  /// Binds to `path` (which must exist; its format is sniffed once — a
  /// follow target never changes format). No rows are consumed yet: the
  /// first Poll() picks up everything present.
  static StatusOr<TraceFollower> Open(const std::string& path,
                                      FollowOptions options = {});

  /// Consumes any complete rows appended since the last poll. O(new rows)
  /// plus O(header + dictionaries) re-open for STF1 / O(new bytes) read
  /// for CSV. On error the consumed mark and analyzer are unchanged.
  StatusOr<FollowPoll> Poll();

  /// Poll() for a file that no longer grows: the end of the file ends the
  /// last CSV record, so a final line without '\n' is consumed and a quote
  /// left open is flagged, as in a batch load.
  StatusOr<FollowPoll> Drain();

  /// The ingest outcome of the rows the last poll read, kept also when the
  /// analyzer then rejected them (an empty report for STF1, whose rows are
  /// taken as they are); nullptr when that poll could not read, open or
  /// parse the file. Lets a caller report a failed Drain() as a batch load
  /// reports a failed load.
  const trace::ParseReport* last_ingest() const {
    return last_ingest_ ? &*last_ingest_ : nullptr;
  }

  /// Renders the report over everything consumed so far (error when no
  /// rows have been consumed yet). Hot-file paths resolve through the
  /// live STF1 dictionaries or the follower's CSV dictionaries.
  StatusOr<StreamingReport> Report() const;

  const std::string& path() const { return path_; }
  trace::TraceFormat format() const { return format_; }
  size_t jobs_consumed() const { return analyzer_.jobs_observed(); }
  const StreamingAnalyzer& analyzer() const { return analyzer_; }

 private:
  TraceFollower(std::string path, trace::TraceFormat format,
                FollowOptions options);

  StatusOr<FollowPoll> PollStf1();
  StatusOr<FollowPoll> PollCsv(bool drain);

  std::string path_;
  trace::TraceFormat format_ = trace::TraceFormat::kCsv;
  FollowOptions options_;
  StreamingAnalyzer analyzer_;
  std::optional<trace::ParseReport> last_ingest_;

  // STF1 state: the live view (kept for Report's dictionary lookups) and
  // the consumed-prefix fingerprint checked on every re-open.
  trace::ColumnarTraceView view_;
  size_t consumed_rows_ = 0;
  uint64_t first_job_id_ = 0;
  double first_submit_ = 0.0;
  uint64_t last_job_id_ = 0;
  double last_submit_ = 0.0;
  size_t seen_name_count_ = 0;
  size_t seen_path_count_ = 0;

  // CSV state: bytes and lines consumed (always up to a record start), the
  // metadata so far, and the dictionaries of the consumed rows.
  uint64_t consumed_bytes_ = 0;
  int consumed_lines_ = 0;
  bool csv_header_consumed_ = false;
  trace::TraceMetadata csv_metadata_;
  StringInterner csv_names_;
  StringInterner csv_paths_;
};

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_FOLLOW_H_
