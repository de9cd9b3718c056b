#ifndef SWIM_CORE_ANALYSIS_STREAMING_H_
#define SWIM_CORE_ANALYSIS_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/analysis/accumulators.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "stats/sketch/gk_quantile.h"
#include "stats/sketch/sliding_window.h"
#include "stats/sketch/space_saving.h"
#include "trace/columnar.h"
#include "trace/job_columns.h"
#include "trace/summary.h"

namespace swim::core {

// ---------------------------------------------------------------------------
// Streaming analysis — the zero-materialization fast path.
//
// StreamingAnalyzer folds the paper's analyses one batch at a time, straight
// off column views (an STF1 file's, a loaded trace's or a parsed CSV
// chunk's; no JobRecord is ever built):
//
//   exact (accumulators.h)            sketch-backed (bounded memory)
//   ------------------------------    --------------------------------
//   Table 1 counts/sums/span          per-job size + duration quantiles
//   file popularity + Zipf fit        re-access interval quantiles (GK)
//   re-access fractions (Fig. 6)      hot-file top-k (Space-Saving)
//   burstiness / correlations /       sliding-window peak-to-median
//     diurnal (hourly series)
//   job-name / framework shares
//   under-10GB job fraction
//
// The exact stages are the same ExactStages accumulators, driven over
// columns by the same row loop (ExactStages::ObserveColumns) as the batch
// AnalyzeWorkload, so those report fields match the batch report bit for
// bit on the same rows by construction; on top of them this class adds
// only input validation (the shared trace::FindInvalidRow bar and the
// trace horizon) and the sketches. Sketch stages answer within the
// configured rank epsilon of the SortedStats oracle. k-means classification
// inherently needs a batch pass and is the one batch stage without a
// streaming equivalent.
//
// Determinism: exact accumulators run serially in row order; GK sketches
// are built per fixed-size row chunk in parallel and merged in chunk order
// — the chunking depends only on batch size, so output is byte-identical
// at any SWIM_THREADS.
// ---------------------------------------------------------------------------

struct StreamingOptions {
  /// Advertised rank-error bound for every GK quantile sketch.
  double quantile_epsilon = 0.005;
  /// Tracked slots for the hot-input Space-Saving sketch.
  size_t hot_file_capacity = 64;
  /// Sliding-window span, in hourly buckets (default: the paper's week).
  size_t window_hours = 168;
  /// Worker lanes for the per-chunk sketch build; 0 = default. Results
  /// are identical at any value.
  int threads = 0;
};

/// Sketch-backed quantile row (rank error <= epsilon * n each).
struct StreamingQuantiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct StreamingHotFile {
  std::string path;
  uint64_t count = 0;  // overestimate; true count in [count-error, count]
  uint64_t error = 0;
};

struct StreamingWindowStats {
  double jobs_peak_to_median = 0.0;
  double bytes_peak_to_median = 0.0;
  double task_seconds_peak_to_median = 0.0;
  size_t live_hours = 0;
};

/// The streaming analogue of WorkloadReport. Fields marked exact match the
/// batch report bit for bit; the rest carry the sketch guarantees above.
struct StreamingReport {
  trace::TraceSummary summary;  // exact except median_duration (GK-backed)
  StreamingQuantiles input_bytes;   // Figure 1 dimensions, GK-backed
  StreamingQuantiles shuffle_bytes;
  StreamingQuantiles output_bytes;
  StreamingQuantiles duration;
  FilePopularity input_popularity;   // exact
  FilePopularity output_popularity;  // exact
  ReaccessFractions reaccess_fractions;  // exact
  /// GK-backed q75 of input->input re-access intervals; < 0 when no
  /// re-access was observed.
  double reaccess_p75_interval = -1.0;
  BurstinessReport burstiness;     // exact
  SeriesCorrelations correlations;  // exact
  double diurnal_strength = 0.0;    // exact
  JobNameReport names;              // exact
  /// Exact fraction of jobs moving < 10 GB total (the paper's dichotomy,
  /// counted per job — the streaming stand-in for the k-means readout).
  double fraction_under_10gb = 0.0;
  std::vector<StreamingHotFile> hot_inputs;  // Space-Saving top-k
  StreamingWindowStats window;
  size_t batches = 0;
  double quantile_epsilon = 0.0;
};

/// One-pass incremental analyzer. Feed rows in submit order as column
/// views, then render a StreamingReport at any point. Every batch's ids
/// must index one growing pair of dictionaries (an append-only STF1 file's,
/// or a follower's). Not thread-safe (one follower owns one analyzer);
/// internally parallel.
class StreamingAnalyzer {
 public:
  explicit StreamingAnalyzer(StreamingOptions options = {});

  /// Trace identity for the report header. STF1 batches adopt the view's
  /// metadata automatically; other callers set it once.
  void SetMetadata(const trace::TraceMetadata& metadata);

  /// Folds rows [begin, end) of `columns`. Rows must continue the
  /// submit-order stream (nondecreasing submit times across calls) and stay
  /// within the trace horizon (trace::kMaxTraceHours after the first
  /// submit); values are validated first, and a rejected batch leaves the
  /// analyzer untouched. Dictionaries may grow between calls; ids are
  /// validated against the current ones.
  Status ObserveColumns(const trace::JobColumns& columns, size_t begin,
                        size_t end);

  /// The same over rows [begin, end) of an STF1 view's columns.
  Status ObserveColumns(const trace::ColumnarTraceView& view, size_t begin,
                        size_t end);

  /// The checks ObserveColumns runs on a batch before folding it, alone.
  Status Validate(const trace::JobColumns& columns, size_t begin,
                  size_t end) const;

  size_t jobs_observed() const { return jobs_; }

  /// Renders the report; hot files resolve to strings through `paths`, the
  /// current path dictionary (an id it lacks renders as "path#<id>").
  /// O(sketch + distinct files + observed hours); the job stream is never
  /// revisited.
  StatusOr<StreamingReport> Report(const trace::DictionaryView& paths) const;
  /// The same with an STF1 view's path dictionary (nullptr: none).
  StatusOr<StreamingReport> Report(
      const trace::ColumnarTraceView* dictionaries = nullptr) const;

 private:
  /// The streaming-only per-row update, after the row's exact-stage fold
  /// returned `gaps`.
  void ObserveExtras(double submit, double shuffle_bytes, int64_t reduce_tasks,
                     double reduce_task_seconds, double total_bytes,
                     double task_seconds, uint32_t input_path_id,
                     const ReaccessGaps& gaps);

  StreamingOptions options_;
  trace::TraceMetadata metadata_;
  bool metadata_set_ = false;
  size_t jobs_ = 0;
  size_t batches_ = 0;

  // Streaming-only summary accumulators (row order).
  double first_submit_ = 0.0;
  double last_submit_ = 0.0;
  double bytes_moved_ = 0.0;
  size_t map_only_ = 0;
  size_t under_10gb_ = 0;

  // The exact stages, shared with the batch pipeline.
  ExactStages exact_;

  // Mergeable quantile sketches.
  stats::GkQuantileSketch gk_input_;
  stats::GkQuantileSketch gk_shuffle_;
  stats::GkQuantileSketch gk_output_;
  stats::GkQuantileSketch gk_duration_;
  stats::GkQuantileSketch gk_reaccess_in_;
  stats::GkQuantileSketch gk_reaccess_out_;

  stats::SpaceSavingSketch hot_inputs_;

  // Sliding windows (bounded memory view of the recent stream).
  stats::SlidingWindowSeries window_jobs_;
  stats::SlidingWindowSeries window_bytes_;
  stats::SlidingWindowSeries window_task_seconds_;
};

/// Human-readable rendering, section for section the streaming analogue of
/// FormatReport (exact lines use the same formats).
std::string FormatStreamingReport(const StreamingReport& report);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_STREAMING_H_
