#include "trace/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/file_image.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace swim::trace {
namespace {

/// Records per parallel parse shard. Fixed (independent of thread count) so
/// shard boundaries — and therefore job order, merged metadata, report
/// contents, and which error is reported first — are identical at any
/// parallelism.
constexpr size_t kShardLines = 4096;

/// Max physical lines one quoted record may span. A lone stray quote must
/// not swallow the rest of a multi-GB file: past this cap the opening line
/// is surfaced alone (it will fail as unbalanced) and parsing resumes at
/// the next physical line.
constexpr int kMaxRecordLines = 64;

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n") != std::string_view::npos;
}

/// Appends `field` to `out`, RFC-4180-quoted only when needed. Append-only
/// (no temporary string per field) so the row formatter can reuse one
/// buffer across millions of rows.
void AppendQuoted(std::string_view field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') {
      out->append("\"\"");
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Appends the shortest of %.12g / %.15g / %.17g that parses back to
/// exactly the same double; %.17g always round-trips IEEE binary64, so CSV
/// round-trips are bit-exact.
void AppendDouble(double value, std::string* out) {
  // std::to_chars emits the shortest decimal string that parses back to
  // exactly `value` (same contract the old %.12g/%.15g/%.17g probe ladder
  // approximated, minus the two wasted snprintf+strtod probes per field —
  // double formatting dominates CSV serialization, see bench_ingest).
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(result.ptr - buffer));
}

/// Appends an integer field.
template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buffer[24];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(result.ptr - buffer));
}

/// Appends one CSV data row (kTraceCsvHeader order, trailing newline).
void AppendCsvRow(const JobRecord& job, std::string* out) {
  AppendInt(job.job_id, out);
  out->push_back(',');
  AppendQuoted(job.name, out);
  out->push_back(',');
  AppendDouble(job.submit_time, out);
  out->push_back(',');
  AppendDouble(job.duration, out);
  out->push_back(',');
  AppendDouble(job.input_bytes, out);
  out->push_back(',');
  AppendDouble(job.shuffle_bytes, out);
  out->push_back(',');
  AppendDouble(job.output_bytes, out);
  out->push_back(',');
  AppendInt(job.map_tasks, out);
  out->push_back(',');
  AppendInt(job.reduce_tasks, out);
  out->push_back(',');
  AppendDouble(job.map_task_seconds, out);
  out->push_back(',');
  AppendDouble(job.reduce_task_seconds, out);
  out->push_back(',');
  AppendQuoted(job.input_path, out);
  out->push_back(',');
  AppendQuoted(job.output_path, out);
  out->push_back('\n');
}

/// The most bytes AppendCsvRow can write for `job`: three integers of at
/// most 20 characters, seven shortest-round-trip doubles of at most 24,
/// 13 separators, and each string fully quoted with every byte escaped.
size_t CsvRowBound(const JobRecord& job) {
  auto quoted = [](const std::string& s) { return 2 * s.size() + 2; };
  return 3 * 20 + 7 * 24 + 13 + quoted(job.name) + quoted(job.input_path) +
         quoted(job.output_path);
}

/// Rows per encoder chunk. Fixed (independent of thread count), and the
/// chunks are emitted in row order, so the bytes are the same at any
/// parallelism.
constexpr size_t kEncodeChunkRows = 1024;
/// Chunks formatted per ParallelFor round: at most this many chunks'
/// bytes (~2.5 MB for the paper workloads) are staged at once.
constexpr size_t kEncodeRoundChunks = 16;

/// The one CSV row encoder behind TraceToCsv and WriteTraceCsv. Formats
/// the rows in kEncodeChunkRows-row chunks, a round of chunks at a time
/// under ParallelFor, and hands each chunk's bytes to `sink` in row order.
/// Stops early, returning false, when `sink` returns false.
bool EncodeCsvRows(const std::vector<JobRecord>& jobs,
                   const std::function<bool(std::string_view)>& sink) {
  const size_t round_rows = kEncodeChunkRows * kEncodeRoundChunks;
  std::vector<std::string> chunks(
      std::min(kEncodeRoundChunks,
               (jobs.size() + kEncodeChunkRows - 1) / kEncodeChunkRows));
  for (size_t round = 0; round < jobs.size(); round += round_rows) {
    const size_t round_end = std::min(jobs.size(), round + round_rows);
    // Size every chunk here, so the workers never allocate: what a worker
    // allocates stays cached in its malloc arena and raised later peaks.
    for (size_t lo = round; lo < round_end; lo += kEncodeChunkRows) {
      size_t bound = 0;
      for (size_t i = lo; i < std::min(round_end, lo + kEncodeChunkRows); ++i) {
        bound += CsvRowBound(jobs[i]);
      }
      chunks[(lo - round) / kEncodeChunkRows].reserve(bound);
    }
    ParallelFor(round, round_end, kEncodeChunkRows, [&](size_t lo, size_t hi) {
      // Format into a local string: neighbouring slots share cache lines,
      // and every append writes the string's size.
      std::string chunk;
      chunk.swap(chunks[(lo - round) / kEncodeChunkRows]);
      chunk.clear();
      for (size_t i = lo; i < hi; ++i) AppendCsvRow(jobs[i], &chunk);
      chunk.swap(chunks[(lo - round) / kEncodeChunkRows]);
    });
    const size_t round_chunks =
        (round_end - round + kEncodeChunkRows - 1) / kEncodeChunkRows;
    for (size_t c = 0; c < round_chunks; ++c) {
      if (!sink(chunks[c])) return false;
    }
  }
  return true;
}

/// Appends the "#key=value" metadata comments plus the column header.
void AppendCsvPrologue(const TraceMetadata& meta, std::string* out) {
  if (!meta.name.empty()) {
    out->append("#name=");
    out->append(meta.name);
    out->push_back('\n');
  }
  char buffer[48];
  if (meta.machines > 0) {
    out->append(buffer,
                static_cast<size_t>(std::snprintf(
                    buffer, sizeof(buffer), "#machines=%d\n", meta.machines)));
  }
  if (meta.year > 0) {
    out->append(buffer, static_cast<size_t>(std::snprintf(
                            buffer, sizeof(buffer), "#year=%d\n", meta.year)));
  }
  out->append(kTraceCsvHeader);
  out->push_back('\n');
}

enum class CsvLineError { kNone, kUnbalancedQuote, kMidFieldQuote };

/// Splits one CSV record honoring RFC 4180 quoting. Quotes are only legal
/// as a field-opening quote, doubled inside a quoted field, or as the
/// closing quote immediately followed by a comma or end of record; any
/// other position (ab"cd, "ab"cd) is rejected as kMidFieldQuote so repair
/// mode can count it instead of silently corrupting the field. The fast
/// path (no quote character anywhere, i.e. every machine-generated numeric
/// row) splits zero-copy into views of `line`; the quoted path unescapes
/// into `scratch` and the views point into those strings, which stay alive
/// until the next call.
CsvLineError SplitCsvLine(std::string_view line,
                          std::vector<std::string_view>* fields,
                          std::vector<std::string>* scratch) {
  fields->clear();
  if (line.find('"') == std::string_view::npos) {
    size_t start = 0;
    for (;;) {
      size_t comma = line.find(',', start);
      if (comma == std::string_view::npos) {
        fields->push_back(line.substr(start));
        return CsvLineError::kNone;
      }
      fields->push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
  }
  scratch->clear();
  std::string current;
  bool in_quotes = false;
  bool closed_quote = false;  // current field was quoted and is now closed
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          closed_quote = true;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == ',') {
      scratch->push_back(std::move(current));
      current.clear();
      closed_quote = false;
    } else if (closed_quote) {
      // "ab"cd — junk after the closing quote.
      return CsvLineError::kMidFieldQuote;
    } else if (c == '"') {
      if (!current.empty()) return CsvLineError::kMidFieldQuote;  // ab"cd
      in_quotes = true;
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return CsvLineError::kUnbalancedQuote;
  scratch->push_back(std::move(current));
  // Build the views only once scratch is fully populated: push_back above
  // may reallocate and move small (SSO) strings, which would dangle.
  fields->reserve(scratch->size());
  for (const std::string& field : *scratch) fields->push_back(field);
  return CsvLineError::kNone;
}

enum class RowAction { kAccepted, kRepaired, kSkipped };

/// Clamps a structurally-parsed record onto the nearest valid one: negative
/// values go to zero, and orphan task-seconds (seconds recorded against a
/// zero task count) are zeroed.
void RepairRecord(JobRecord* job) {
  job->submit_time = std::max(0.0, job->submit_time);
  job->duration = std::max(0.0, job->duration);
  job->input_bytes = std::max(0.0, job->input_bytes);
  job->shuffle_bytes = std::max(0.0, job->shuffle_bytes);
  job->output_bytes = std::max(0.0, job->output_bytes);
  job->map_tasks = std::max<int64_t>(0, job->map_tasks);
  job->reduce_tasks = std::max<int64_t>(0, job->reduce_tasks);
  job->map_task_seconds = std::max(0.0, job->map_task_seconds);
  job->reduce_task_seconds = std::max(0.0, job->reduce_task_seconds);
  if (job->map_tasks == 0) job->map_task_seconds = 0.0;
  if (job->reduce_tasks == 0) job->reduce_task_seconds = 0.0;
}

/// Parses one split row under the given mode. On any flagged problem the
/// diagnostic records the row's first problem (fields scanned left to
/// right); kRepair additionally patches every patchable field and reports
/// kRepaired when the row survives. job_id and the field count are
/// identity/structure and never repairable.
RowAction ParseRowLenient(const std::vector<std::string_view>& fields,
                          int line_number, ParseMode mode, JobRecord* job,
                          ParseDiagnostic* diag) {
  diag->line = line_number;
  diag->repaired = false;
  bool flagged = false;
  auto flag = [&](ParseErrorKind kind, const char* field, std::string reason) {
    if (flagged) return;
    flagged = true;
    diag->kind = kind;
    diag->field = field;
    diag->reason = std::move(reason);
  };
  if (fields.size() != 13) {
    flag(ParseErrorKind::kFieldCount, "",
         "expected 13 fields, got " + std::to_string(fields.size()));
    return RowAction::kSkipped;
  }
  const bool repair = mode == ParseMode::kRepair;
  int64_t id = 0;
  if (!ParseInt64(fields[0], &id) || id < 0) {
    flag(ParseErrorKind::kBadNumber, "job_id", "bad job_id");
    return RowAction::kSkipped;  // identity lost; unrepairable
  }
  job->job_id = static_cast<uint64_t>(id);
  job->name = std::string(fields[1]);

  auto read_double = [&](size_t index, const char* name, double* out) {
    double v = 0.0;
    if (!ParseDouble(fields[index], &v) || !std::isfinite(v)) {
      flag(ParseErrorKind::kBadNumber, name, std::string("bad ") + name);
      if (!repair) return false;
      v = 0.0;
    }
    *out = v;
    return true;
  };
  auto read_int = [&](size_t index, const char* name, int64_t* out) {
    int64_t v = 0;
    if (!ParseInt64(fields[index], &v)) {
      flag(ParseErrorKind::kBadNumber, name, std::string("bad ") + name);
      if (!repair) return false;
      v = 0;
    }
    *out = v;
    return true;
  };
  if (!read_double(2, "submit_time", &job->submit_time) ||
      !read_double(3, "duration", &job->duration) ||
      !read_double(4, "input_bytes", &job->input_bytes) ||
      !read_double(5, "shuffle_bytes", &job->shuffle_bytes) ||
      !read_double(6, "output_bytes", &job->output_bytes) ||
      !read_int(7, "map_tasks", &job->map_tasks) ||
      !read_int(8, "reduce_tasks", &job->reduce_tasks) ||
      !read_double(9, "map_task_seconds", &job->map_task_seconds) ||
      !read_double(10, "reduce_task_seconds", &job->reduce_task_seconds)) {
    return RowAction::kSkipped;
  }
  job->input_path = std::string(fields[11]);
  job->output_path = std::string(fields[12]);

  std::string violation = ValidateJobRecord(*job);
  if (!violation.empty()) {
    flag(ParseErrorKind::kInvalidRecord, "", violation);
    if (!repair) return RowAction::kSkipped;
  }
  if (flagged && repair) {
    RepairRecord(job);
    if (!ValidateJobRecord(*job).empty()) return RowAction::kSkipped;
  }
  if (!flagged) return RowAction::kAccepted;
  diag->repaired = true;
  return RowAction::kRepaired;
}

/// Strict-mode error text for a flagged row, matching the historical
/// messages ("line N: expected 13 fields...", "line N: bad submit_time").
Status DiagnosticToStatus(const ParseDiagnostic& diag) {
  std::string what;
  switch (diag.kind) {
    case ParseErrorKind::kUnbalancedQuote:
      what = "unbalanced quotes";
      break;
    case ParseErrorKind::kMidFieldQuote:
      what = "quote in the middle of a field";
      break;
    default:
      what = diag.reason;
      break;
  }
  return InvalidArgumentError("line " + std::to_string(diag.line) + ": " +
                              what);
}

/// Applies a "#key=value" metadata assignment found on line `line`. The
/// machines and year values must be integers in [0, INT32_MAX]; anything
/// else fails the load instead of being truncated or ignored. Other keys
/// are ignored.
Status ApplyMetadata(std::string_view key, std::string_view value, int line,
                     TraceMetadata* meta) {
  if (key == "name") {
    meta->name = std::string(value);
    return Status::Ok();
  }
  int* target = key == "machines" ? &meta->machines
                : key == "year"   ? &meta->year
                                  : nullptr;
  if (target == nullptr) return Status::Ok();
  int64_t v = 0;
  if (!ParseInt64(value, &v) || v < 0 ||
      v > std::numeric_limits<int32_t>::max()) {
    return InvalidArgumentError(
        "line " + std::to_string(line) + ": #" + std::string(key) + "=" +
        std::string(value) + " is not an integer in [0, 2147483647]");
  }
  *target = static_cast<int>(v);
  return Status::Ok();
}

/// One "#key=value" line of the data region, applied in line order when
/// the shards merge.
struct MetadataLine {
  std::string key;
  std::string value;
  int line = 0;
};

/// One logical CSV record: a view into the input plus the 1-based physical
/// line number where it starts (used in diagnostics).
struct CsvRecord {
  std::string_view text;
  int line = 0;
};

/// Splits `text` into records with std::getline semantics ('\n' separated,
/// no empty final record after a trailing newline, trailing '\r' stripped
/// at each record end), extended with RFC 4180 quote continuation: a line
/// with an open quote at its end pulls in following physical lines until
/// the quote closes, so quoted fields may contain newlines. '#' comment
/// lines never continue. Continuation is capped at kMaxRecordLines; an
/// unclosed quote surfaces only its opening line (later flagged as
/// unbalanced) and parsing resumes on the next physical line, which is what
/// lets skip/repair modes recover from a single stray quote.
std::vector<CsvRecord> SplitRecords(std::string_view text) {
  std::vector<CsvRecord> records;
  // Quotes are found with memchr, not by testing every byte: `next_quote`
  // is the first quote not yet counted (npos when none is left), so a line
  // without one costs a compare and a file without quotes one scan.
  size_t next_quote = text.find('"');
  // Flips `in_quotes` once per quote in text[begin, end). After an
  // unclosed record, parsing resumes on lines whose quotes were already
  // counted; the quote stayed open across each of them, so each holds an
  // even number and skipping them leaves every line's parity unchanged.
  auto toggle_quotes = [&](size_t begin, size_t end, bool* in_quotes) {
    if (next_quote < begin) next_quote = text.find('"', begin);  // '#' line
    while (next_quote < end) {
      *in_quotes = !*in_quotes;
      next_quote = text.find('"', next_quote + 1);
    }
  };
  size_t pos = 0;
  int line_no = 0;  // physical lines fully consumed
  while (pos < text.size()) {
    const int record_line = line_no + 1;
    size_t nl = text.find('\n', pos);
    size_t end = (nl == std::string_view::npos) ? text.size() : nl;
    size_t after = (nl == std::string_view::npos) ? text.size() : nl + 1;
    int consumed = 1;

    bool in_quotes = false;
    if (text[pos] != '#') toggle_quotes(pos, end, &in_quotes);
    if (in_quotes) {
      // Quote still open at end of line: scan continuation lines.
      size_t scan = after;
      int span = 1;
      bool closed = false;
      while (scan < text.size() && span < kMaxRecordLines) {
        size_t cnl = text.find('\n', scan);
        size_t cend = (cnl == std::string_view::npos) ? text.size() : cnl;
        size_t cafter = (cnl == std::string_view::npos) ? text.size() : cnl + 1;
        toggle_quotes(scan, cend, &in_quotes);
        ++span;
        if (!in_quotes) {
          end = cend;
          after = cafter;
          consumed = span;
          closed = true;
          break;
        }
        scan = cafter;
      }
      if (!closed) {
        // Unbalanced: keep only the opening physical line (end/after/
        // consumed already describe it) and let the row parser flag it.
      }
    }
    std::string_view record = text.substr(pos, end - pos);
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    records.push_back({record, record_line});
    line_no += consumed;
    pos = after;
  }
  return records;
}

}  // namespace

StatusOr<ParseMode> ParseModeFromName(std::string_view name) {
  std::string normalized = ToLower(name);
  if (normalized == "strict") return ParseMode::kStrict;
  if (normalized == "skip") return ParseMode::kSkip;
  if (normalized == "repair") return ParseMode::kRepair;
  return InvalidArgumentError("unknown parse mode '" + std::string(name) +
                              "' (expected strict|skip|repair)");
}

const char* ParseModeName(ParseMode mode) {
  switch (mode) {
    case ParseMode::kStrict:
      return "strict";
    case ParseMode::kSkip:
      return "skip";
    case ParseMode::kRepair:
      return "repair";
  }
  return "?";
}

const char* ParseErrorKindName(ParseErrorKind kind) {
  switch (kind) {
    case ParseErrorKind::kUnbalancedQuote:
      return "unbalanced-quote";
    case ParseErrorKind::kMidFieldQuote:
      return "mid-field-quote";
    case ParseErrorKind::kFieldCount:
      return "field-count";
    case ParseErrorKind::kBadNumber:
      return "bad-number";
    case ParseErrorKind::kInvalidRecord:
      return "invalid-record";
  }
  return "?";
}

std::string ParseDiagnostic::ToString() const {
  std::string out = "line " + std::to_string(line) + " [" +
                    ParseErrorKindName(kind) + "]";
  if (!field.empty()) out += " " + field;
  if (!reason.empty()) out += ": " + reason;
  out += repaired ? " (repaired)" : " (skipped)";
  return out;
}

std::string ParseReport::ToString() const {
  std::string out = "ingest (" + std::string(ParseModeName(mode)) + "): " +
                    std::to_string(total_rows) + " rows, " +
                    std::to_string(accepted) + " accepted";
  if (repaired > 0) out += " (" + std::to_string(repaired) + " repaired)";
  out += ", " + std::to_string(skipped) + " skipped";
  if (flagged() > 0) {
    out += "\n  categories:";
    for (size_t i = 0; i < kParseErrorKinds; ++i) {
      if (error_counts[i] == 0) continue;
      out += " " +
             std::string(ParseErrorKindName(static_cast<ParseErrorKind>(i))) +
             "=" + std::to_string(error_counts[i]);
    }
  }
  for (const ParseDiagnostic& diag : diagnostics) {
    out += "\n  " + diag.ToString();
  }
  if (dropped_diagnostics > 0) {
    out += "\n  (" + std::to_string(dropped_diagnostics) +
           " more flagged rows not shown)";
  }
  return out;
}

std::string TraceToCsv(const Trace& trace) {
  const std::vector<JobRecord>& jobs = trace.jobs();
  std::string out;
  AppendCsvPrologue(trace.metadata(), &out);
  const size_t prologue = out.size();
  size_t rows = 0;
  EncodeCsvRows(jobs, [&](std::string_view chunk) {
    rows = std::min(jobs.size(), rows + kEncodeChunkRows);
    if (out.size() + chunk.size() > out.capacity()) {
      // Reserve for every row at the mean row size so far, plus 1/8. Spare
      // capacity is never written, so it costs address space, not
      // resident memory; a short guess costs one more copy.
      const double per_row =
          static_cast<double>(out.size() - prologue + chunk.size()) /
          static_cast<double>(rows);
      out.reserve(prologue + static_cast<size_t>(
                                 per_row * 1.125 *
                                 static_cast<double>(jobs.size())) +
                  chunk.size());
    }
    out.append(chunk);
    return true;
  });
  return out;
}

StatusOr<Trace> TraceFromCsv(std::string_view csv_text,
                             const ParseOptions& options,
                             ParseReport* report) {
  Trace trace;
  if (report) {
    *report = ParseReport{};
    report->mode = options.mode;
  }
  const std::vector<CsvRecord> records = SplitRecords(csv_text);

  // Sequential prologue: metadata comments up to and including the header.
  size_t first_data = records.size();
  bool header_seen = false;
  for (size_t i = 0; i < records.size(); ++i) {
    std::string_view line = records[i].text;
    if (line.empty()) continue;
    if (line[0] == '#') {
      auto parts = Split(line.substr(1), '=');
      if (parts.size() == 2) {
        SWIM_RETURN_IF_ERROR(ApplyMetadata(parts[0], parts[1], records[i].line,
                                           &trace.mutable_metadata()));
      }
      continue;
    }
    if (line != kTraceCsvHeader) {
      return InvalidArgumentError("line " + std::to_string(records[i].line) +
                                  ": unrecognized header");
    }
    header_seen = true;
    first_data = i + 1;
    break;
  }
  if (!header_seen) return InvalidArgumentError("missing CSV header");

  // Data region: fixed-size record shards parsed concurrently. Each shard
  // collects its jobs, any "#key=value" assignments, its report fragment,
  // and (strict mode) its first error; merging in shard order reproduces
  // the serial parser exactly, so trace AND report are byte-identical at
  // any thread count.
  struct Shard {
    std::vector<JobRecord> jobs;
    std::vector<MetadataLine> metadata;
    Status error = Status::Ok();
    size_t rows = 0;
    size_t skipped = 0;
    size_t repaired = 0;
    std::array<size_t, kParseErrorKinds> error_counts{};
    std::vector<ParseDiagnostic> diagnostics;  // capped at max_diagnostics
    size_t dropped_diagnostics = 0;
  };
  const size_t shard_count =
      (records.size() - first_data + kShardLines - 1) / kShardLines;
  std::vector<Shard> shards(shard_count);
  const ParseMode mode = options.mode;
  const size_t max_diagnostics = options.max_diagnostics;
  ParallelFor(
      first_data, records.size(), kShardLines,
      [&](size_t lo, size_t hi) {
        Shard& shard = shards[(lo - first_data) / kShardLines];
        std::vector<std::string_view> fields;
        std::vector<std::string> scratch;
        shard.jobs.reserve(hi - lo);
        auto note = [&](const ParseDiagnostic& diag) {
          ++shard.error_counts[static_cast<size_t>(diag.kind)];
          if (diag.repaired) {
            ++shard.repaired;
          } else {
            ++shard.skipped;
          }
          if (shard.diagnostics.size() < max_diagnostics) {
            shard.diagnostics.push_back(diag);
          } else {
            ++shard.dropped_diagnostics;
          }
        };
        for (size_t i = lo; i < hi; ++i) {
          std::string_view line = records[i].text;
          const int line_number = records[i].line;
          if (line.empty()) continue;
          if (line[0] == '#') {
            auto parts = Split(line.substr(1), '=');
            if (parts.size() == 2) {
              shard.metadata.push_back(
                  {std::move(parts[0]), std::move(parts[1]), line_number});
            }
            continue;
          }
          ++shard.rows;
          ParseDiagnostic diag;
          CsvLineError split_error = SplitCsvLine(line, &fields, &scratch);
          if (split_error != CsvLineError::kNone) {
            diag.line = line_number;
            diag.kind = split_error == CsvLineError::kUnbalancedQuote
                            ? ParseErrorKind::kUnbalancedQuote
                            : ParseErrorKind::kMidFieldQuote;
            diag.reason = "";
            if (mode == ParseMode::kStrict) {
              shard.error = DiagnosticToStatus(diag);
              return;
            }
            note(diag);
            continue;
          }
          JobRecord job;
          RowAction action =
              ParseRowLenient(fields, line_number, mode, &job, &diag);
          if (action == RowAction::kSkipped ||
              action == RowAction::kRepaired) {
            if (mode == ParseMode::kStrict) {
              shard.error = DiagnosticToStatus(diag);
              return;
            }
            note(diag);
            if (action == RowAction::kSkipped) continue;
          }
          shard.jobs.push_back(std::move(job));
        }
      },
      options.threads);

  // The lowest-indexed shard with an error holds the earliest failing
  // line; report it, like the serial parser's first-error behaviour. A
  // shard's metadata lines all precede the row that stopped it, so they are
  // applied (and checked) first.
  size_t total_jobs = 0;
  for (const Shard& shard : shards) {
    for (const MetadataLine& meta : shard.metadata) {
      SWIM_RETURN_IF_ERROR(ApplyMetadata(meta.key, meta.value, meta.line,
                                         &trace.mutable_metadata()));
    }
    if (!shard.error.ok()) return shard.error;
    total_jobs += shard.jobs.size();
  }
  std::vector<JobRecord> jobs;
  jobs.reserve(total_jobs);
  for (Shard& shard : shards) {
    for (JobRecord& job : shard.jobs) jobs.push_back(std::move(job));
    if (report) {
      report->total_rows += shard.rows;
      report->skipped += shard.skipped;
      report->repaired += shard.repaired;
      for (size_t i = 0; i < kParseErrorKinds; ++i) {
        report->error_counts[i] += shard.error_counts[i];
      }
      for (ParseDiagnostic& diag : shard.diagnostics) {
        if (report->diagnostics.size() < options.max_diagnostics) {
          report->diagnostics.push_back(std::move(diag));
        } else {
          ++report->dropped_diagnostics;
        }
      }
      report->dropped_diagnostics += shard.dropped_diagnostics;
    }
  }
  if (report) report->accepted = total_jobs;
  trace.SetJobs(std::move(jobs));
  if (options.warm_indexes) trace.WarmIndexes();
  return trace;
}

StatusOr<Trace> TraceFromCsv(std::string_view csv_text, int threads) {
  ParseOptions options;
  options.mode = ParseMode::kStrict;
  options.threads = threads;
  return TraceFromCsv(csv_text, options, nullptr);
}

Status WriteTraceCsv(const Trace& trace, const std::string& path) {
  // Writes chunk by chunk, so a multi-GB trace never has its full CSV
  // image in memory (TraceToCsv offers the in-memory form).
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) return IoError("cannot open for writing: " + path);
  auto write = [&](std::string_view bytes) {
    return std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  };
  std::string prologue;
  AppendCsvPrologue(trace.metadata(), &prologue);
  if (!write(prologue) || !EncodeCsvRows(trace.jobs(), write) ||
      std::fflush(out) != 0) {
    std::fclose(out);
    return IoError("write failed: " + path);
  }
  if (std::fclose(out) != 0) return IoError("close failed: " + path);
  return Status::Ok();
}

StatusOr<Trace> ReadTraceCsv(const std::string& path,
                             const ParseOptions& options,
                             ParseReport* report) {
  SWIM_ASSIGN_OR_RETURN(FileImage image, FileImage::Read(path));
  return TraceFromCsv(image.view(), options, report);
}

StatusOr<Trace> ReadTraceCsv(const std::string& path, int threads) {
  ParseOptions options;
  options.mode = ParseMode::kStrict;
  options.threads = threads;
  return ReadTraceCsv(path, options, nullptr);
}

}  // namespace swim::trace
