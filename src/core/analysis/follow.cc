#include "core/analysis/follow.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/file_image.h"

namespace swim::core {

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
  return format_ == trace::TraceFormat::kStf1 ? PollStf1() : PollCsv(false);
}

StatusOr<FollowPoll> TraceFollower::Drain() {
  return format_ == trace::TraceFormat::kStf1 ? PollStf1() : PollCsv(true);
}

StatusOr<FollowPoll> TraceFollower::PollStf1() {
  last_ingest_.reset();
  SWIM_ASSIGN_OR_RETURN(trace::ColumnarTraceView view,
                        trace::ColumnarTraceView::Open(path_));
  last_ingest_.emplace();  // STF1 rows are taken as they are: a clean ingest
  const trace::JobColumns columns = view.columns();
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
    if (columns.job_id[0] != first_job_id_ ||
        columns.submit_time[0] != first_submit_ ||
        columns.job_id[consumed_rows_ - 1] != last_job_id_ ||
        columns.submit_time[consumed_rows_ - 1] != last_submit_) {
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
  first_job_id_ = columns.job_id[0];
  first_submit_ = columns.submit_time[0];
  last_job_id_ = columns.job_id[consumed_rows_ - 1];
  last_submit_ = columns.submit_time[consumed_rows_ - 1];
  seen_name_count_ = view.name_count();
  seen_path_count_ = view.path_count();
  view_ = std::move(view);
  poll.total_jobs = analyzer_.jobs_observed();
  return poll;
}

StatusOr<FollowPoll> TraceFollower::PollCsv(bool drain) {
  last_ingest_.reset();
  SWIM_ASSIGN_OR_RETURN(FileImage tail,
                        FileImage::Read(path_, consumed_bytes_));
  FollowPoll poll;
  poll.total_jobs = analyzer_.jobs_observed();
  const std::string_view records = tail.view().substr(
      0, drain ? tail.size() : trace::LastCsvRecordEnd(tail.view()));
  // Until the header is there, a growing file holds only its comments.
  if (records.empty() || (!drain && !csv_header_consumed_ &&
                          !trace::CsvPrologueEnds(records))) {
    last_ingest_.emplace();
    return poll;
  }

  // Later chunks are parsed behind the metadata so far and the header, and
  // numbered from their first file line, so they parse as the rest of one
  // document.
  std::string document;
  int prologue_lines = 0;
  if (csv_header_consumed_) {
    trace::AppendCsvPrologue(csv_metadata_, &document);
    prologue_lines = static_cast<int>(
        std::count(document.begin(), document.end(), '\n'));
    document.append(records);
  }
  StatusOr<trace::Trace> parsed = trace::TraceFromCsv(
      csv_header_consumed_ ? std::string_view(document) : records,
      options_.csv_parse, &poll.ingest, consumed_lines_ + 1 - prologue_lines);
  if (!parsed.ok()) return parsed.status();
  last_ingest_ = poll.ingest;
  const uint64_t cut = records.size();
  const int lines = static_cast<int>(poll.ingest.lines) - prologue_lines;
  tail = FileImage();  // the bytes are parsed; free them before folding
  document = std::string();

  trace::JobColumns chunk = parsed->columns();
  // The chunk's ids are first-appearance ids; while nothing is interned
  // yet, its dictionaries become the follower's as they are.
  const bool adopt = csv_names_.empty() && csv_paths_.empty();
  if (adopt) {
    SWIM_RETURN_IF_ERROR(analyzer_.ObserveColumns(chunk, 0, chunk.size));
  } else {
    // Check the rows before the dictionaries grow, so a rejected chunk
    // leaves no trace in them. Interning the chunk's dictionaries in id
    // order extends the follower's in first-appearance order over the whole
    // stream; one table per dictionary maps the chunk's ids onto them.
    SWIM_RETURN_IF_ERROR(analyzer_.Validate(chunk, 0, chunk.size));
    const std::vector<uint32_t> name_table =
        trace::InternAll(chunk.names, csv_names_);
    const std::vector<uint32_t> path_table =
        trace::InternAll(chunk.paths, csv_paths_);
    auto map = [&](const uint32_t* ids, const std::vector<uint32_t>& table) {
      std::vector<uint32_t> mapped(ids, ids + chunk.size);
      trace::RemapIds(table, mapped.data(), mapped.size());
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
  consumed_lines_ += lines;
  csv_header_consumed_ = true;
  csv_metadata_ = parsed->metadata();
  analyzer_.SetMetadata(csv_metadata_);
  poll.new_jobs = parsed->size();
  poll.total_jobs = analyzer_.jobs_observed();
  if (adopt) parsed->TakeDictionaries(&csv_names_, &csv_paths_);
  return poll;
}

StatusOr<StreamingReport> TraceFollower::Report() const {
  if (format_ == trace::TraceFormat::kCsv) {
    return analyzer_.Report(trace::DictionaryView(csv_paths_));
  }
  return analyzer_.Report(consumed_rows_ > 0 ? &view_ : nullptr);
}

}  // namespace swim::core
