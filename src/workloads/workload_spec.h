#ifndef SWIM_WORKLOADS_WORKLOAD_SPEC_H_
#define SWIM_WORKLOADS_WORKLOAD_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace swim::workloads {

/// A weighted job-name first word. `weight` is relative within the owning
/// job type; words are chosen per job and decorated by the name generator.
struct NameWeight {
  std::string word;
  double weight = 1.0;
};

/// One generative job class - a row of the paper's Table 2 used in the
/// forward direction: cluster centers become the medians of a lognormal
/// mixture component, and cluster sizes become mixture weights.
struct JobTypeSpec {
  std::string label;
  /// Relative share of job count (Table 2 "# Jobs" column).
  double count_weight = 0.0;

  /// Component medians. Zero means "exactly zero" (e.g. map-only jobs have
  /// shuffle_bytes == 0), not a small lognormal.
  double input_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double output_bytes = 0.0;
  double duration_seconds = 0.0;
  double map_task_seconds = 0.0;
  double reduce_task_seconds = 0.0;

  /// Geometric spread around the medians (sigma of the log-normal, in
  /// natural log units). Intra-class spread in real traces is wide but far
  /// narrower than the 10-orders-of-magnitude inter-class spread.
  double log_sigma = 0.8;

  /// First words for names of jobs in this class. Empty falls back to the
  /// workload-level default grammar.
  std::vector<NameWeight> name_words;
};

/// Shape of the job arrival process (section 5).
struct ArrivalSpec {
  /// Amplitude of the 24-hour cycle in [0, 1); 0 disables diurnality.
  double diurnal_strength = 0.0;
  /// Multiplier applied to Saturday/Sunday rates (1 = no weekly pattern).
  double weekend_factor = 1.0;
  /// Sigma of the AR(1) lognormal modulation of the hourly rate - the
  /// burstiness knob. Larger values widen the percentile-to-median curve
  /// (Figure 8).
  double burst_log_sigma = 0.8;
  /// Hour-to-hour autocorrelation of the burst process in [0, 1).
  double burst_autocorrelation = 0.5;
  /// Documentation/calibration target from the paper (not enforced).
  double peak_to_median_target = 0.0;
};

/// Shape of the HDFS file population and its access process (section 4).
struct FilePopulationSpec {
  /// Distinct input files the workload draws from.
  size_t input_files = 10000;
  /// Zipf exponent for file popularity; the paper measures ~5/6 everywhere.
  double zipf_slope = 5.0 / 6.0;
  /// Probability that a job's input is a re-access of an existing input
  /// file (vs a never-before-seen file). Drives Figure 6.
  double input_reaccess_fraction = 0.3;
  /// Probability that a job reads a pre-existing *output* of an earlier job
  /// (chained computations). Drives Figure 6's second bar.
  double output_reaccess_fraction = 0.1;
  /// Probability that a re-access targets a recently used file rather than
  /// a popularity-ranked draw; with `recency_halflife_seconds` this shapes
  /// the re-access interval CDF (Figure 5).
  double recency_bias = 0.6;
  double recency_halflife_seconds = 3 * 3600.0;
  /// Jobs whose input exceeds this threshold mostly scan dedicated cold
  /// files (their re-access probabilities are multiplied by
  /// `large_job_reaccess_scale`). This reproduces the paper's storage
  /// skew: accesses concentrate on small hot files while most stored
  /// bytes sit in rarely-read large files (Figures 3/4, the 80-X rule).
  double large_job_bytes = 100e9;
  double large_job_reaccess_scale = 0.1;
  /// Only jobs writing less than this share the repeatedly-rewritten
  /// "hot" output destinations; bigger writers get dedicated paths (daily
  /// partition directories). Keeps popular output files small, matching
  /// Figure 4's stored-bytes skew.
  double hot_output_max_bytes = 1e9;
};

/// Which optional trace columns the source deployment logged; mirrors the
/// gaps in the paper's Table/Figure footnotes (e.g. FB-2010 lacks names and
/// output paths, FB-2009 and CC-a lack paths entirely).
struct TraceColumnAvailability {
  bool names = true;
  bool input_paths = true;
  bool output_paths = true;
};

/// Full declarative description of one workload; `paper_workloads.h`
/// provides the seven calibrated instances.
struct WorkloadSpec {
  trace::TraceMetadata metadata;
  /// Total jobs over the full span (Table 1).
  size_t total_jobs = 0;
  /// Trace length in seconds (Table 1).
  double span_seconds = 0.0;

  std::vector<JobTypeSpec> job_types;
  /// Default name grammar for job types without their own.
  std::vector<NameWeight> default_name_words;
  ArrivalSpec arrival;
  FilePopulationSpec files;
  TraceColumnAvailability columns;
};

/// Checks structural validity (positive totals, weights, spans; non-empty
/// mixture; probabilities in range).
Status ValidateSpec(const WorkloadSpec& spec);

/// Largest accepted FilePopulationSpec::input_files. Each file becomes a
/// dense uint32 path id once a generated trace is indexed, and one id value
/// (kNoStringId, 0xffffffff) is reserved for "no path", so a population
/// beyond this many files cannot be represented. The bound also turns
/// absurd counts (e.g. 9e18, which ended in an uncaught std::length_error
/// while building the Zipf tables) into an InvalidArgumentError.
inline constexpr size_t kMaxInputFiles = std::numeric_limits<uint32_t>::max();

/// The file-population part of ValidateSpec, shared with every other
/// reader of a FilePopulationSpec (.swim models). NaN fails every bound.
Status ValidateFilePopulation(const FilePopulationSpec& files);

}  // namespace swim::workloads

#endif  // SWIM_WORKLOADS_WORKLOAD_SPEC_H_
