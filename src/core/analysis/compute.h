#ifndef SWIM_CORE_ANALYSIS_COMPUTE_H_
#define SWIM_CORE_ANALYSIS_COMPUTE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "trace/frameworks.h"
#include "trace/trace.h"

namespace swim::core {

/// Share of activity attributed to one job-name first word, under the
/// paper's three weightings (Figure 10: by job count, by total I/O bytes,
/// by task-time).
struct NameShare {
  std::string word;
  trace::Framework framework = trace::Framework::kNative;
  double by_jobs = 0.0;
  double by_bytes = 0.0;
  double by_task_seconds = 0.0;
};

struct JobNameReport {
  /// All observed first words, sorted by descending job share.
  std::vector<NameShare> words;
  /// Aggregate shares per framework (indexed by trace::Framework),
  /// weighted by jobs / bytes / task-seconds.
  std::array<double, trace::kFrameworkCount> framework_by_jobs{};
  std::array<double, trace::kFrameworkCount> framework_by_bytes{};
  std::array<double, trace::kFrameworkCount> framework_by_task_seconds{};
  size_t named_jobs = 0;

  /// Combined share of the two most active frameworks by job count; the
  /// paper observes "two frameworks account for a dominant majority of
  /// jobs" in every workload.
  double TopTwoFrameworkJobShare() const;
};

/// Tokenizes job names to their first word (section 6.1) and accumulates
/// the three weightings. Jobs without names are excluded.
JobNameReport AnalyzeJobNames(const trace::Trace& trace);

/// One k-means job class - a reproduced Table 2 row. Dimension values are
/// geometric means (the centroid exponentiated back from log space).
struct JobClass {
  std::string label;
  size_t count = 0;
  double input_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double output_bytes = 0.0;
  double duration_seconds = 0.0;
  double map_task_seconds = 0.0;
  double reduce_task_seconds = 0.0;

  double TotalBytes() const {
    return input_bytes + shuffle_bytes + output_bytes;
  }
};

struct ClassificationOptions {
  /// Upper bound for the elbow search over k.
  int max_k = 10;
  /// Elbow rule threshold: stop when adding a cluster recovers less than
  /// this fraction of total variance (paper: "diminishing return").
  double min_improvement = 0.05;
  uint64_t seed = 1;
  /// Fit on at most this many jobs (uniform subsample) for tractability;
  /// all jobs are still assigned to the fitted centroids.
  size_t sample_cap = 60000;
  /// Worker lanes for k-means and the full-trace assignment pass: 0 =
  /// default (SWIM_THREADS / hardware), 1 = serial. Output is identical
  /// at any thread count.
  int threads = 0;
};

struct JobClassification {
  std::vector<JobClass> classes;  // descending by count
  int k = 0;
  /// Residual variance per candidate k from the elbow search.
  std::vector<double> elbow_residuals;
  /// Fraction of jobs in the most numerous class; the paper finds the
  /// "Small jobs" class holds > 90% in every workload.
  double largest_class_fraction = 0.0;
  /// Fraction of jobs across all classes labeled "Small jobs" (k-means may
  /// legitimately carve the small-job mass into adjacent sub-clusters).
  double small_label_fraction = 0.0;
  /// Fraction of jobs in classes that sit on the small side of the
  /// paper's 10 GB dichotomy (class centroid < 10 GB, or labeled "Small
  /// jobs" - sub-clusters of the small mass count wholesale). The paper
  /// measures >= 92% everywhere, summing Table 2 cluster sizes.
  double fraction_under_10gb = 0.0;
};

/// Reproduces the paper's section 6.2 methodology: each job is a
/// six-dimensional vector (input, shuffle, output, duration, map time,
/// reduce time); features are log-transformed (they span ~10 orders of
/// magnitude) and standardized; k is chosen by diminishing residual
/// variance; clusters get human-readable labels derived from their
/// centroids ("Small jobs", "Map only transform", "Aggregate", ...).
StatusOr<JobClassification> ClassifyJobs(
    const trace::Trace& trace, const ClassificationOptions& options = {});
/// The same over columns: features are computed only for the sampled rows
/// and then once per row in the assignment pass.
StatusOr<JobClassification> ClassifyJobs(
    const trace::JobColumns& jobs, const ClassificationOptions& options = {});

/// The rows ClassifyJobs fits on: a reservoir sample of up to
/// options.sample_cap row indices out of `rows`, in reservoir order, drawn
/// from the options.seed stream. Exposed for tests.
std::vector<size_t> ClassificationSampleRows(
    size_t rows, const ClassificationOptions& options);

/// Centroid-to-label heuristic, exposed for tests: mirrors the paper's
/// Table 2 vocabulary.
std::string LabelForCentroid(const JobClass& centroid);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_COMPUTE_H_
