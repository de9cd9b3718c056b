#ifndef SWIM_CORE_ANALYSIS_ACCUMULATORS_H_
#define SWIM_CORE_ANALYSIS_ACCUMULATORS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "stats/sketch/zipf_online.h"
#include "trace/job_columns.h"

namespace swim::core {

// ---------------------------------------------------------------------------
// Exact per-row accumulators: the one kernel behind each exact stage.
//
// Every exact stage of the paper's report (hourly series, file popularity,
// re-access, job-name shares) folds jobs one at a time, in submit order,
// into one of the accumulators below. The batch pipeline (AnalyzeWorkload
// and the per-stage Compute* functions), the streaming analyzer and
// BuildModel all drive these same classes, so their exact report fields
// agree bit for bit by construction. The per-row calls are inline so the
// drivers' row loops pay no indirect call.
// ---------------------------------------------------------------------------

/// Fails with InvalidArgumentError, naming the job, when a job of rows
/// [begin, end) finishes more than trace::kMaxTraceHours after
/// `first_submit`. Run it before any series is sized: past the horizon the
/// hourly buckets alone would take gigabytes.
Status CheckHorizon(const trace::JobColumns& columns, size_t begin,
                    size_t end, double first_submit);

/// Hourly submission series (Figures 7-9). Jobs are credited to their
/// submission hour since the first observed submit.
class SubmissionSeriesAccumulator {
 public:
  void Observe(double submit, double finish, double total_bytes,
               double task_seconds) {
    if (!started_) {
      started_ = true;
      first_submit_ = submit;
    }
    if (finish > max_finish_) max_finish_ = finish;
    const auto hour = static_cast<size_t>((submit - first_submit_) / 3600.0);
    if (hour >= series_.jobs_per_hour.size()) {
      series_.jobs_per_hour.resize(hour + 1, 0.0);
      series_.bytes_per_hour.resize(hour + 1, 0.0);
      series_.task_seconds_per_hour.resize(hour + 1, 0.0);
    }
    series_.jobs_per_hour[hour] += 1.0;
    series_.bytes_per_hour[hour] += total_bytes;
    series_.task_seconds_per_hour[hour] += task_seconds;
  }

  /// Latest finish (never below 0) minus the first submit; 0 when empty.
  double span_seconds() const {
    return started_ ? max_finish_ - first_submit_ : 0.0;
  }

  /// The series padded with zero hours to the full span (it includes job
  /// durations, so hours past the last submission are real zero buckets).
  /// Empty when nothing was observed.
  SubmissionSeries Series() const;

 private:
  bool started_ = false;
  double first_submit_ = 0.0;
  double max_finish_ = 0.0;
  SubmissionSeries series_;
};

/// The intervals one read closes, in seconds. Negative means the path had
/// no earlier read (input_input) or no earlier completed write
/// (output_input). Reads arrive in submit order, so real intervals are
/// never negative.
struct ReaccessGaps {
  double input_input = -1.0;
  double output_input = -1.0;
};

/// The chronological re-access scan (Figures 5 and 6). Each job reads its
/// input path at submit time and writes its output path at finish time.
/// Jobs arrive in submit order, so reads are already chronological; writes
/// wait in a min-heap keyed by (finish time, stream position) and are
/// applied just before the first read that follows them. A job's read has
/// position 2*row and its write 2*row+1, so at equal times a write of an
/// earlier job lands before the read and a job never reads its own output.
class ReaccessScan {
 public:
  /// Sizes the per-path tables for ids below `path_count`.
  void Reserve(size_t path_count) {
    if (path_count > last_read_.size()) Grow(path_count);
  }

  /// Folds the next job in submit order; ids are kNoStringId when the job
  /// has no such path. Returns the intervals its read closes.
  ReaccessGaps Observe(double submit, double finish, uint32_t input_id,
                       uint32_t output_id) {
    ReaccessGaps gaps;
    const uint64_t row = rows_++;
    if (input_id != kNoStringId) {
      Reserve(static_cast<size_t>(input_id) + 1);
      ApplyWritesBefore(submit, 2 * row);
      ++jobs_with_paths_;
      // The strongest provenance wins: output of an earlier job over an
      // input seen before (Figure 6's two stacked categories).
      if (seen_outputs_[input_id]) {
        ++output_hits_;
      } else if (seen_inputs_[input_id]) {
        ++input_hits_;
      }
      seen_inputs_[input_id] = 1;
      if (last_read_[input_id] >= 0.0) {
        gaps.input_input = submit - last_read_[input_id];
      }
      if (last_written_[input_id] >= 0.0) {
        gaps.output_input = submit - last_written_[input_id];
      }
      last_read_[input_id] = submit;
    }
    if (output_id != kNoStringId) {
      Reserve(static_cast<size_t>(output_id) + 1);
      PushWrite(finish, 2 * row + 1, output_id);
    }
    return gaps;
  }

  ReaccessFractions Fractions() const;

 private:
  struct PendingWrite {
    double time = 0.0;
    uint64_t seq = 0;
    uint32_t path_id = 0;
  };

  /// Heap order: the earliest (time, seq) sits on top.
  static bool Later(const PendingWrite& a, const PendingWrite& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void PushWrite(double time, uint64_t seq, uint32_t path_id) {
    pending_writes_.push_back(PendingWrite{time, seq, path_id});
    std::push_heap(pending_writes_.begin(), pending_writes_.end(), Later);
  }

  /// Applies every pending write ordered before stream position (time, seq).
  void ApplyWritesBefore(double time, uint64_t seq) {
    while (!pending_writes_.empty()) {
      const PendingWrite& top = pending_writes_.front();
      if (!Later(PendingWrite{time, seq, 0}, top)) break;
      seen_outputs_[top.path_id] = 1;
      last_written_[top.path_id] = top.time;
      std::pop_heap(pending_writes_.begin(), pending_writes_.end(), Later);
      pending_writes_.pop_back();
    }
  }

  void Grow(size_t path_count);

  uint64_t rows_ = 0;
  std::vector<PendingWrite> pending_writes_;  // binary min-heap
  std::vector<double> last_read_;             // path id -> time; < 0: never
  std::vector<double> last_written_;
  std::vector<uint8_t> seen_inputs_;
  std::vector<uint8_t> seen_outputs_;
  size_t jobs_with_paths_ = 0;
  size_t input_hits_ = 0;
  size_t output_hits_ = 0;
};

/// File popularity (Figure 2) from access counts per path id: nonzero counts
/// sorted descending, with their Zipf fit.
FilePopularity PopularityFromZipf(const stats::OnlineZipf& counts);

/// Job-name shares (Figure 10): words are interned to dense ids in
/// first-appearance order and accumulated per id; Report() emits shares in
/// id order and sorts them. Feed jobs in submit order.
class JobNameAccumulator {
 public:
  /// Accumulates one job named by dictionary id `name_id`, tokenizing
  /// `name_of(name_id)` only the first time the id is seen. Every id fed to
  /// one accumulator must come from the same dictionary.
  template <typename NameOf>
  void ObserveNameId(uint32_t name_id, NameOf&& name_of, double total_bytes,
                     double total_task_seconds) {
    if (name_id >= word_of_name_.size()) {
      word_of_name_.resize(static_cast<size_t>(name_id) + 1, kNoStringId);
    }
    uint32_t& word_id = word_of_name_[name_id];
    if (word_id == kNoStringId) word_id = WordIdForName(name_of(name_id));
    ObserveWord(word_id, total_bytes, total_task_seconds);
  }

  /// Tokenizes and accumulates one job by its name; empty names are
  /// ignored.
  void Observe(std::string_view name, double total_bytes,
               double total_task_seconds);

  JobNameReport Report() const;

 private:
  struct Accumulator {
    double jobs = 0.0;
    double bytes = 0.0;
    double task_seconds = 0.0;
  };

  uint32_t WordIdForName(std::string_view name);
  void ObserveWord(uint32_t word_id, double total_bytes,
                   double total_task_seconds);

  StringInterner words_;
  std::vector<Accumulator> by_word_;
  std::vector<uint32_t> word_of_name_;  // name id -> word id memo
  double total_jobs_ = 0.0;
  double total_bytes_ = 0.0;
  double total_task_seconds_ = 0.0;
  size_t named_jobs_ = 0;
};

/// Results of the exact stages, rendered from an ExactStages.
struct ExactStageResults {
  FilePopularity input_popularity;
  FilePopularity output_popularity;
  ReaccessFractions reaccess_fractions;
  BurstinessReport burstiness;
  SeriesCorrelations correlations;
  double diurnal_strength = 0.0;
  JobNameReport names;
};

/// One row as ExactStages::ObserveColumns read it, with its sums.
struct ColumnRow {
  double submit = 0.0;
  double duration = 0.0;
  double shuffle_bytes = 0.0;
  int64_t reduce_tasks = 0;
  double reduce_task_seconds = 0.0;
  uint32_t input_path_id = kNoStringId;
  double total_bytes = 0.0;   // input + shuffle + output
  double task_seconds = 0.0;  // map + reduce task-seconds
};

/// Every exact stage in one row-order fold, for the drivers that compute
/// them all (AnalyzeWorkload and StreamingAnalyzer).
struct ExactStages {
  /// The one row loop over columns: folds rows [begin, end) in order, then
  /// hands each row to `on_row(row, gaps)` (a ColumnRow) for the caller's
  /// own per-row work. `on_row` is inlined; the loop makes no indirect call
  /// per row.
  template <typename OnRow>
  void ObserveColumns(const trace::JobColumns& c, size_t begin, size_t end,
                      OnRow&& on_row) {
    reaccess.Reserve(c.paths.size());
    auto name_of = [&c](uint32_t id) { return c.names[id]; };
    // Local copies: the accumulators' byte-sized stores could alias the
    // views inside `c`, forcing a reload of every column base per row.
    const double* const submit_time = c.submit_time;
    const double* const duration = c.duration;
    const double* const input_bytes = c.input_bytes;
    const double* const shuffle_bytes = c.shuffle_bytes;
    const double* const output_bytes = c.output_bytes;
    const int64_t* const reduce_tasks = c.reduce_tasks;
    const double* const map_task_seconds = c.map_task_seconds;
    const double* const reduce_task_seconds = c.reduce_task_seconds;
    const uint32_t* const name_ids = c.name_id;
    const uint32_t* const input_path_ids = c.input_path_id;
    const uint32_t* const output_path_ids = c.output_path_id;
    for (size_t i = begin; i < end; ++i) {
      ColumnRow row;
      row.submit = submit_time[i];
      row.duration = duration[i];
      row.shuffle_bytes = shuffle_bytes[i];
      row.reduce_tasks = reduce_tasks[i];
      row.reduce_task_seconds = reduce_task_seconds[i];
      row.input_path_id = input_path_ids[i];
      // TotalBytes() and TotalTaskSeconds() shapes, so sums match bit for
      // bit with JobRecord-based code.
      row.total_bytes = input_bytes[i] + row.shuffle_bytes + output_bytes[i];
      row.task_seconds = map_task_seconds[i] + row.reduce_task_seconds;
      const ReaccessGaps gaps =
          Observe(row.submit, row.submit + row.duration, row.total_bytes,
                  row.task_seconds, row.input_path_id, output_path_ids[i]);
      const uint32_t name_id = name_ids[i];
      if (name_id != kNoStringId) {
        names.ObserveNameId(name_id, name_of, row.total_bytes,
                            row.task_seconds);
      }
      on_row(row, gaps);
    }
  }

  /// Folds one job's series, popularity and re-access contributions.
  ReaccessGaps Observe(double submit, double finish, double total_bytes,
                       double task_seconds, uint32_t input_id,
                       uint32_t output_id) {
    series.Observe(submit, finish, total_bytes, task_seconds);
    if (input_id != kNoStringId) input_popularity.Add(input_id);
    if (output_id != kNoStringId) output_popularity.Add(output_id);
    return reaccess.Observe(submit, finish, input_id, output_id);
  }

  ExactStageResults Results() const;

  SubmissionSeriesAccumulator series;
  stats::OnlineZipf input_popularity;
  stats::OnlineZipf output_popularity;
  ReaccessScan reaccess;
  JobNameAccumulator names;
};

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_ACCUMULATORS_H_
