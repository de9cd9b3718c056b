#include "core/analysis/follow.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace swim::core {
namespace {

/// Reads [offset, end) of `path`. A shrink below `offset` is a structured
/// error (the producer truncated or replaced the file under us).
StatusOr<std::string> ReadFileTail(const std::string& path, uint64_t offset) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoError("cannot open trace file: " + path);
  }
  std::string bytes;
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return IoError("cannot seek in trace file: " + path);
  }
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return IoError("cannot size trace file: " + path);
  }
  if (static_cast<uint64_t>(size) < offset) {
    std::fclose(file);
    return FailedPreconditionError(
        "followed trace shrank from " + std::to_string(offset) + " to " +
        std::to_string(size) + " bytes: " + path);
  }
  const uint64_t want = static_cast<uint64_t>(size) - offset;
  bytes.resize(want);
  if (want > 0) {
    if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0 ||
        std::fread(bytes.data(), 1, want, file) != want) {
      std::fclose(file);
      return IoError("short read of trace file tail: " + path);
    }
  }
  std::fclose(file);
  return bytes;
}

/// Length of the longest prefix of `chunk` ending at a record boundary: a
/// newline at even quote parity. A half-flushed quoted field (odd parity)
/// is left for the next poll. Returns 0 when no complete record is
/// available yet.
size_t CompleteRecordPrefix(const std::string& chunk) {
  bool in_quote = false;
  size_t cut = 0;
  for (size_t i = 0; i < chunk.size(); ++i) {
    const char c = chunk[i];
    if (c == '"') {
      in_quote = !in_quote;
    } else if (c == '\n' && !in_quote) {
      cut = i + 1;
    }
  }
  return cut;
}

}  // namespace

TraceFollower::TraceFollower(std::string path, trace::TraceFormat format,
                             FollowOptions options)
    : path_(std::move(path)),
      format_(format),
      options_(options),
      analyzer_(options.streaming) {}

StatusOr<TraceFollower> TraceFollower::Open(const std::string& path,
                                            FollowOptions options) {
  SWIM_ASSIGN_OR_RETURN(trace::TraceFormat format,
                        trace::SniffTraceFormat(path));
  return TraceFollower(path, format, options);
}

StatusOr<FollowPoll> TraceFollower::Poll() {
  return format_ == trace::TraceFormat::kStf1 ? PollStf1() : PollCsv();
}

StatusOr<FollowPoll> TraceFollower::PollStf1() {
  trace::ColumnarOptions open_options;
  SWIM_ASSIGN_OR_RETURN(trace::ColumnarTraceView view,
                        trace::ColumnarTraceView::Open(path_, open_options));
  FollowPoll poll;
  poll.total_jobs = analyzer_.jobs_observed();
  if (view.job_count() < consumed_rows_) {
    return FailedPreconditionError(
        "followed STF1 trace shrank from " + std::to_string(consumed_rows_) +
        " to " + std::to_string(view.job_count()) + " jobs: " + path_);
  }
  if (view.name_count() < seen_name_count_ ||
      view.path_count() < seen_path_count_) {
    return FailedPreconditionError(
        "followed STF1 trace's dictionaries shrank (append-only contract "
        "violated): " +
        path_);
  }
  if (consumed_rows_ > 0) {
    // Spot-check the consumed prefix: an append-only producer rewrites the
    // snapshot with the old rows bit-identical in place, so the first and
    // last consumed rows pin both ends of the prefix cheaply (two column
    // elements each; no O(consumed) rescan).
    if (view.job_ids()[0] != first_job_id_ ||
        view.submit_times()[0] != first_submit_ ||
        view.job_ids()[consumed_rows_ - 1] != last_job_id_ ||
        view.submit_times()[consumed_rows_ - 1] != last_submit_) {
      return FailedPreconditionError(
          "followed STF1 trace's consumed prefix changed (not an append): " +
          path_);
    }
  }
  if (view.job_count() == consumed_rows_) {
    // No growth; keep the existing view (its dictionaries already cover
    // every consumed row).
    return poll;
  }
  SWIM_RETURN_IF_ERROR(
      analyzer_.ObserveColumns(view, consumed_rows_, view.job_count()));
  poll.new_jobs = view.job_count() - consumed_rows_;
  consumed_rows_ = view.job_count();
  first_job_id_ = view.job_ids()[0];
  first_submit_ = view.submit_times()[0];
  last_job_id_ = view.job_ids()[consumed_rows_ - 1];
  last_submit_ = view.submit_times()[consumed_rows_ - 1];
  seen_name_count_ = view.name_count();
  seen_path_count_ = view.path_count();
  view_ = std::move(view);
  has_view_ = true;
  poll.total_jobs = analyzer_.jobs_observed();
  return poll;
}

StatusOr<FollowPoll> TraceFollower::PollCsv() {
  SWIM_ASSIGN_OR_RETURN(std::string chunk,
                        ReadFileTail(path_, consumed_bytes_));
  FollowPoll poll;
  poll.total_jobs = analyzer_.jobs_observed();
  const size_t cut = CompleteRecordPrefix(chunk);
  if (cut == 0) return poll;
  chunk.resize(cut);

  // The first consumed chunk carries the "#key=value" metadata comments and
  // the header line itself; later chunks are bare records and get the
  // canonical header prepended so the row parser sees a complete document.
  std::string document;
  if (csv_header_consumed_) {
    document.reserve(sizeof(trace::kTraceCsvHeader) + chunk.size());
    document.append(trace::kTraceCsvHeader);
    document.push_back('\n');
    document.append(chunk);
  } else {
    document = std::move(chunk);
  }
  trace::ParseReport report;
  SWIM_ASSIGN_OR_RETURN(
      trace::Trace parsed,
      trace::TraceFromCsv(document, options_.csv_parse, &report));
  if (!parsed.empty()) {
    trace::JobColumns chunk = parsed.columns();
    // Check the rows before the dictionaries grow, so a rejected chunk
    // leaves no trace in them.
    SWIM_RETURN_IF_ERROR(analyzer_.Validate(chunk, 0, chunk.size));
    // The chunk's ids are first-appearance ids within the chunk, so
    // interning its dictionaries in id order extends the follower's in
    // first-appearance order over the whole stream; one table per
    // dictionary maps the chunk's ids onto the follower's.
    auto table = [](const StringInterner& from, StringInterner& to) {
      std::vector<uint32_t> ids(from.size());
      for (uint32_t id = 0; id < from.size(); ++id) {
        ids[id] = to.Intern(from.NameOf(id));
      }
      return ids;
    };
    const std::vector<uint32_t> name_table = table(parsed.names(), csv_names_);
    const std::vector<uint32_t> path_table = table(parsed.paths(), csv_paths_);
    auto map = [&](const uint32_t* ids, const std::vector<uint32_t>& to) {
      std::vector<uint32_t> mapped(ids, ids + chunk.size);
      for (uint32_t& id : mapped) {
        if (id != kNoStringId) id = to[id];
      }
      return mapped;
    };
    const std::vector<uint32_t> name_ids = map(chunk.name_id, name_table);
    const std::vector<uint32_t> input_path_ids =
        map(chunk.input_path_id, path_table);
    const std::vector<uint32_t> output_path_ids =
        map(chunk.output_path_id, path_table);
    chunk.name_id = name_ids.data();
    chunk.input_path_id = input_path_ids.data();
    chunk.output_path_id = output_path_ids.data();
    chunk.names = trace::DictionaryView(csv_names_);
    chunk.paths = trace::DictionaryView(csv_paths_);
    SWIM_RETURN_IF_ERROR(analyzer_.ObserveColumns(chunk, 0, chunk.size));
  }
  // Only now that the chunk is fully folded does the consumed mark move.
  consumed_bytes_ += cut;
  csv_header_consumed_ = true;
  if (!csv_metadata_set_) {
    analyzer_.SetMetadata(parsed.metadata());
    csv_metadata_set_ = true;
  }
  poll.new_jobs = parsed.size();
  poll.total_jobs = analyzer_.jobs_observed();
  return poll;
}

StatusOr<StreamingReport> TraceFollower::Report() const {
  if (format_ == trace::TraceFormat::kCsv) {
    return analyzer_.Report(trace::DictionaryView(csv_paths_));
  }
  return analyzer_.Report(has_view_ ? &view_ : nullptr);
}

}  // namespace swim::core
