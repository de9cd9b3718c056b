#include "core/analysis/compute.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/interner.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/analysis/accumulators.h"
#include "stats/kmeans.h"
#include "stats/sampling.h"

namespace swim::core {
namespace {

constexpr size_t kDims = 6;

using Features = std::array<double, kDims>;

Features JobFeatures(const trace::JobColumns& jobs, size_t i) {
  // log10(1 + x) compresses the ~10 orders of magnitude spanned by job
  // dimensions; +1 keeps exact zeros (map-only shuffle) meaningful.
  auto f = [](double x) { return std::log10(1.0 + x); };
  return {f(jobs.input_bytes[i]),      f(jobs.shuffle_bytes[i]),
          f(jobs.output_bytes[i]),     f(jobs.duration[i]),
          f(jobs.map_task_seconds[i]), f(jobs.reduce_task_seconds[i])};
}

double InverseFeature(double value) {
  return std::max(0.0, std::pow(10.0, value) - 1.0);
}

JobClass CentroidToClass(const Features& centroid) {
  JobClass jc;
  jc.input_bytes = InverseFeature(centroid[0]);
  jc.shuffle_bytes = InverseFeature(centroid[1]);
  jc.output_bytes = InverseFeature(centroid[2]);
  jc.duration_seconds = InverseFeature(centroid[3]);
  jc.map_task_seconds = InverseFeature(centroid[4]);
  jc.reduce_task_seconds = InverseFeature(centroid[5]);
  return jc;
}

}  // namespace

double JobNameReport::TopTwoFrameworkJobShare() const {
  std::array<double, trace::kFrameworkCount> shares = framework_by_jobs;
  std::sort(shares.begin(), shares.end(), std::greater<double>());
  return shares[0] + shares[1];
}

JobNameReport AnalyzeJobNames(const trace::Trace& trace) {
  const trace::JobColumns c = trace.columns();
  auto name_of = [&](uint32_t id) { return c.names[id]; };
  JobNameAccumulator accumulator;
  for (size_t i = 0; i < c.size; ++i) {
    if (c.name_id[i] == kNoStringId) continue;
    accumulator.ObserveNameId(
        c.name_id[i], name_of,
        c.input_bytes[i] + c.shuffle_bytes[i] + c.output_bytes[i],
        c.map_task_seconds[i] + c.reduce_task_seconds[i]);
  }
  return accumulator.Report();
}

std::string LabelForCentroid(const JobClass& c) {
  const double total = c.TotalBytes();
  const bool map_only = c.reduce_task_seconds < 1.0 && c.shuffle_bytes < kMB;

  // Small interactive jobs: little data, minutes-at-most duration, modest
  // task time. The byte bound is looser than the paper's 10 GB dichotomy
  // because k-means may carve the small-job mass into adjacent
  // sub-clusters whose upper centroid sits somewhat above the class
  // median (CC-c centers its small class at ~8.9 GB).
  if (total < 30 * kGB && c.duration_seconds < 10 * kMinute &&
      c.map_task_seconds < 60000) {
    return "Small jobs";
  }
  // Data-loading pattern: negligible input, sizable output, no reduce.
  if (map_only && c.input_bytes < 10 * kMB && c.output_bytes > 100 * kMB) {
    return "Load data";
  }

  std::string verb;
  double in = std::max(c.input_bytes, 1.0);
  double out_ratio = c.output_bytes / in;
  double shuffle_ratio = c.shuffle_bytes / in;
  if (out_ratio < 0.05) {
    verb = shuffle_ratio > 1.5 ? "Expand and aggregate" : "Aggregate";
  } else if (out_ratio > 2.0) {
    verb = "Expand";
  } else if (shuffle_ratio > 2.0 && out_ratio < 0.5) {
    verb = "Expand and aggregate";
  } else {
    verb = "Transform";
  }
  if (map_only) verb = "Map only " + ToLower(verb);

  std::string qualifier;
  if (total >= 50 * kTB) {
    qualifier = ", huge";
  } else if (total >= 5 * kTB) {
    qualifier = ", very large";
  } else if (c.duration_seconds >= 12 * kHour) {
    qualifier = ", long";
  }
  return verb + qualifier;
}

StatusOr<JobClassification> ClassifyJobs(const trace::Trace& trace,
                                         const ClassificationOptions& options) {
  return ClassifyJobs(trace.columns(), options);
}

std::vector<size_t> ClassificationSampleRows(
    size_t rows, const ClassificationOptions& options) {
  Pcg32 rng(options.seed, /*stream=*/0xc1a55);
  stats::ReservoirSampler<size_t> sampler(
      std::max<size_t>(1, options.sample_cap), rng.Fork());
  for (size_t i = 0; i < rows; ++i) sampler.Add(i);
  return sampler.sample();
}

StatusOr<JobClassification> ClassifyJobs(const trace::JobColumns& jobs,
                                         const ClassificationOptions& options) {
  if (jobs.size == 0) return InvalidArgumentError("empty trace");

  // Subsample row indices for fitting; features only for the sample.
  const std::vector<size_t> rows = ClassificationSampleRows(jobs.size, options);
  std::vector<std::vector<double>> sample;
  sample.reserve(rows.size());
  for (size_t row : rows) {
    const Features features = JobFeatures(jobs, row);
    sample.emplace_back(features.begin(), features.end());
  }

  stats::ColumnScaling scaling = stats::StandardizeColumns(sample);
  stats::KMeansOptions kmeans_options;
  kmeans_options.seed = options.seed;
  kmeans_options.threads = options.threads;
  SWIM_ASSIGN_OR_RETURN(
      stats::ChooseKResult elbow,
      stats::ChooseKByElbow(sample, options.max_k, options.min_improvement,
                            kmeans_options));
  const stats::KMeansResult& fit = elbow.fit;

  JobClassification result;
  result.k = elbow.k;
  result.elbow_residuals = elbow.residuals;

  // Assign every job (not just the sample) to its nearest centroid, and
  // accumulate log-space means per cluster for reporting. Chunked over the
  // trace with per-chunk partials merged in chunk order, so the reported
  // class means are identical at any thread count.
  const size_t num_clusters = fit.centroids.size();
  constexpr size_t kAssignGrain = 8192;
  const size_t chunk_count = (jobs.size + kAssignGrain - 1) / kAssignGrain;
  struct AssignPartial {
    std::vector<size_t> counts;
    std::vector<Features> log_sums;
  };
  std::vector<AssignPartial> partials(chunk_count);
  ParallelFor(
      0, jobs.size, kAssignGrain,
      [&](size_t lo, size_t hi) {
        AssignPartial& part = partials[lo / kAssignGrain];
        part.counts.assign(num_clusters, 0);
        part.log_sums.assign(num_clusters, Features{});
        for (size_t i = lo; i < hi; ++i) {
          Features features = JobFeatures(jobs, i);
          // Standardize with the sample's scaling.
          for (size_t d = 0; d < kDims; ++d) {
            features[d] -= scaling.mean[d];
            if (scaling.stddev[d] > 0.0) features[d] /= scaling.stddev[d];
          }
          size_t best = 0;
          double best_dist = std::numeric_limits<double>::max();
          for (size_t c = 0; c < num_clusters; ++c) {
            double dist = 0.0;
            for (size_t d = 0; d < kDims; ++d) {
              double diff = features[d] - fit.centroids[c][d];
              dist += diff * diff;
            }
            if (dist < best_dist) {
              best_dist = dist;
              best = c;
            }
          }
          ++part.counts[best];
          for (size_t d = 0; d < kDims; ++d) {
            part.log_sums[best][d] +=
                features[d] *
                    (scaling.stddev[d] > 0.0 ? scaling.stddev[d] : 1.0) +
                scaling.mean[d];
          }
        }
      },
      options.threads);
  std::vector<size_t> counts(num_clusters, 0);
  std::vector<Features> log_sums(num_clusters, Features{});
  for (const AssignPartial& part : partials) {
    for (size_t c = 0; c < num_clusters; ++c) {
      counts[c] += part.counts[c];
      for (size_t d = 0; d < kDims; ++d) log_sums[c][d] += part.log_sums[c][d];
    }
  }

  for (size_t c = 0; c < fit.centroids.size(); ++c) {
    if (counts[c] == 0) continue;
    Features mean_log{};
    for (size_t d = 0; d < kDims; ++d) {
      mean_log[d] = log_sums[c][d] / static_cast<double>(counts[c]);
    }
    JobClass jc = CentroidToClass(mean_log);
    jc.count = counts[c];
    jc.label = LabelForCentroid(jc);
    result.classes.push_back(std::move(jc));
  }
  std::sort(result.classes.begin(), result.classes.end(),
            [](const JobClass& a, const JobClass& b) {
              return a.count > b.count;
            });
  result.largest_class_fraction =
      static_cast<double>(result.classes.front().count) /
      static_cast<double>(jobs.size);
  size_t small_labeled = 0;
  size_t under_10gb = 0;
  for (const auto& jc : result.classes) {
    if (jc.label == "Small jobs") small_labeled += jc.count;
    // The paper's "<10 GB" dichotomy is a class-granularity statement
    // (sum of Table 2 cluster sizes whose centers touch <10 GB); small-job
    // sub-clusters count wholesale.
    if (jc.TotalBytes() < 10 * kGB || jc.label == "Small jobs") {
      under_10gb += jc.count;
    }
  }
  result.small_label_fraction =
      static_cast<double>(small_labeled) / static_cast<double>(jobs.size);
  result.fraction_under_10gb =
      static_cast<double>(under_10gb) / static_cast<double>(jobs.size);
  return result;
}

}  // namespace swim::core
