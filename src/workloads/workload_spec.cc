#include "workloads/workload_spec.h"

#include <string>

namespace swim::workloads {
namespace {

bool InUnitInterval(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

Status ValidateSpec(const WorkloadSpec& spec) {
  if (spec.metadata.name.empty()) {
    return InvalidArgumentError("spec has no name");
  }
  if (spec.total_jobs == 0) return InvalidArgumentError("total_jobs == 0");
  if (spec.span_seconds <= 0.0) {
    return InvalidArgumentError("span_seconds must be positive");
  }
  if (spec.job_types.empty()) {
    return InvalidArgumentError("no job types defined");
  }
  double total_weight = 0.0;
  for (const auto& jt : spec.job_types) {
    if (jt.count_weight < 0.0) {
      return InvalidArgumentError("job type '" + jt.label +
                                  "' has negative count_weight");
    }
    if (jt.log_sigma < 0.0) {
      return InvalidArgumentError("job type '" + jt.label +
                                  "' has negative log_sigma");
    }
    if (jt.input_bytes < 0 || jt.shuffle_bytes < 0 || jt.output_bytes < 0 ||
        jt.duration_seconds < 0 || jt.map_task_seconds < 0 ||
        jt.reduce_task_seconds < 0) {
      return InvalidArgumentError("job type '" + jt.label +
                                  "' has a negative dimension");
    }
    total_weight += jt.count_weight;
  }
  if (total_weight <= 0.0) {
    return InvalidArgumentError("job type weights sum to zero");
  }
  const ArrivalSpec& a = spec.arrival;
  if (!InUnitInterval(a.diurnal_strength) || a.diurnal_strength >= 1.0) {
    return InvalidArgumentError("diurnal_strength must be in [0, 1)");
  }
  if (a.weekend_factor < 0.0) {
    return InvalidArgumentError("weekend_factor must be >= 0");
  }
  if (a.burst_log_sigma < 0.0) {
    return InvalidArgumentError("burst_log_sigma must be >= 0");
  }
  if (!InUnitInterval(a.burst_autocorrelation) ||
      a.burst_autocorrelation >= 1.0) {
    return InvalidArgumentError("burst_autocorrelation must be in [0, 1)");
  }
  return ValidateFilePopulation(spec.files);
}

Status ValidateFilePopulation(const FilePopulationSpec& f) {
  // Every comparison is written so NaN fails it.
  if (f.input_files == 0) {
    return InvalidArgumentError("input_files must be >= 1");
  }
  if (f.input_files > kMaxInputFiles) {
    return InvalidArgumentError("input_files must be <= " +
                                std::to_string(kMaxInputFiles));
  }
  if (!(f.zipf_slope >= 0.0)) {
    return InvalidArgumentError("zipf_slope must be >= 0");
  }
  if (!InUnitInterval(f.input_reaccess_fraction) ||
      !InUnitInterval(f.output_reaccess_fraction) ||
      !InUnitInterval(f.recency_bias)) {
    return InvalidArgumentError("file probabilities must be in [0, 1]");
  }
  if (f.input_reaccess_fraction + f.output_reaccess_fraction > 1.0) {
    return InvalidArgumentError(
        "input + output re-access fractions exceed 1");
  }
  if (!(f.recency_halflife_seconds > 0.0)) {
    return InvalidArgumentError("recency_halflife_seconds must be positive");
  }
  if (!(f.large_job_bytes > 0.0)) {
    return InvalidArgumentError("large_job_bytes must be positive");
  }
  if (!(f.large_job_reaccess_scale > 0.0 &&
        f.large_job_reaccess_scale <= 1.0)) {
    return InvalidArgumentError("large_job_reaccess_scale must be in (0, 1]");
  }
  if (!(f.hot_output_max_bytes > 0.0)) {
    return InvalidArgumentError("hot_output_max_bytes must be positive");
  }
  return Status::Ok();
}

}  // namespace swim::workloads
