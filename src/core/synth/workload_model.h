#ifndef SWIM_CORE_SYNTH_WORKLOAD_MODEL_H_
#define SWIM_CORE_SYNTH_WORKLOAD_MODEL_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "trace/job_record.h"
#include "trace/trace.h"
#include "workloads/workload_spec.h"

namespace swim::core {

/// An *empirical* generative model extracted from a trace, following the
/// paper's section 7 position that workload dimensions do not fit
/// well-known closed-form distributions - "the workload traces are the
/// model". Synthesis resamples whole exemplar jobs (preserving the joint
/// distribution across all six dimensions) rather than sampling each
/// dimension independently.
struct WorkloadModel {
  std::string source_name;
  double span_seconds = 0.0;
  size_t total_jobs = 0;

  /// Whole-job exemplars (paths cleared; name reduced to its first word).
  /// A uniform subsample of the source when it exceeds the cap.
  std::vector<trace::JobRecord> exemplars;

  /// Hourly arrival weights over the source span (unnormalized).
  std::vector<double> hourly_envelope;

  /// Fitted file-access model: Zipf slope from the source's popularity
  /// curve, re-access fractions from its provenance scan, recency
  /// half-life from its interval CDF median.
  workloads::FilePopulationSpec file_model;
  workloads::TraceColumnAvailability columns;
};

/// Largest accepted job count of a model (total_jobs) or a synthesis: the
/// uint32 id-space bound of workloads::kMaxInputFiles, since an indexed
/// trace numbers its paths and names with dense uint32 ids. The bound turns
/// absurd counts (99999999999999 ended in an uncaught std::bad_alloc) into
/// an InvalidArgumentError.
inline constexpr size_t kMaxJobs = workloads::kMaxInputFiles;

struct ModelOptions {
  /// Maximum exemplars retained (uniform reservoir subsample above this).
  size_t exemplar_cap = 200000;
  uint64_t seed = 11;
};

/// Fits a WorkloadModel to a trace.
StatusOr<WorkloadModel> BuildModel(const trace::Trace& trace,
                                   const ModelOptions& options = {});

/// Serializes / parses a model as a self-contained text blob (envelope +
/// file-model parameters + exemplar CSV), so models can be shipped without
/// the raw trace - the paper's "public workload repository" use case.
std::string ModelToText(const WorkloadModel& model);
StatusOr<WorkloadModel> ModelFromText(const std::string& text);

Status SaveModel(const WorkloadModel& model, const std::string& path);
StatusOr<WorkloadModel> LoadModel(const std::string& path);

}  // namespace swim::core

#endif  // SWIM_CORE_SYNTH_WORKLOAD_MODEL_H_
