#ifndef SWIM_FRAMEWORKS_WORKFLOW_H_
#define SWIM_FRAMEWORKS_WORKFLOW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/statusor.h"
#include "frameworks/query_plan.h"
#include "trace/trace.h"

namespace swim::frameworks {

/// A workflow-structured trace: the jobs plus the inter-job dependency
/// edges that Hadoop's per-job logs do not record - exactly the
/// information the paper's section 6.1 asks future tracing to expose
/// ("it will be beneficial to have UUIDs to identify jobs belonging to
/// the same workflow").
struct WorkflowTrace {
  trace::Trace trace;
  /// job_id -> prerequisite job_ids; feed to sim::ReplayOptions.
  FlatHashMap<uint64_t, std::vector<uint64_t>> dependencies;
  /// job_id -> workflow ordinal.
  FlatHashMap<uint64_t, uint64_t> workflow_of;
  size_t workflow_count = 0;
};

struct WorkflowGeneratorOptions {
  size_t workflows = 200;
  double span_seconds = 24 * 3600.0;
  uint64_t seed = 21;
  /// Lognormal parameters for per-workflow input size (natural log of
  /// bytes); defaults center around ~3 GB with a heavy tail.
  double input_log_mean = 21.8;
  double input_log_sigma = 2.0;
  /// Mix of program shapes (relative weights).
  double hive_select_weight = 4.0;
  double hive_insert_weight = 3.0;
  double hive_from_weight = 1.0;
  double pig_weight = 3.0;
  /// Fraction of workflows wrapped in an Oozie coordinator (adds a
  /// launcher job ahead of the chain, as Oozie does).
  double oozie_fraction = 0.25;
};

/// Generates a trace of multi-stage workflows: each workflow is a random
/// Hive query or Pig script, compiled to its stage chain and instantiated
/// at a sampled input size. Stage k+1's input path is stage k's output
/// path (producing the output->input re-access chains of Figure 5), job
/// names carry a "W=<id>" workflow tag, and the dependency map mirrors the
/// chain order. Deterministic in options.
StatusOr<WorkflowTrace> GenerateWorkflowTrace(
    const WorkflowGeneratorOptions& options = {});

/// Reconstructed view of one workflow from a trace (grouped by the W= tag
/// in job names).
struct WorkflowSummary {
  uint64_t workflow_id = 0;
  std::vector<uint64_t> job_ids;  // in submit order
  trace::Framework framework = trace::Framework::kNative;
  size_t stages = 0;
  double input_bytes = 0.0;   // first stage input
  double output_bytes = 0.0;  // last stage output
  double span_seconds = 0.0;  // first submit to last finish
  double total_task_seconds = 0.0;
  /// Sum of stage durations: the sequential critical path (stages of one
  /// chain cannot overlap).
  double critical_path_seconds = 0.0;
};

struct WorkflowReport {
  std::vector<WorkflowSummary> workflows;
  size_t tagged_jobs = 0;
  size_t untagged_jobs = 0;
  double mean_stages = 0.0;
  double max_stages = 0.0;
  /// Fraction of workflows with more than one stage - multi-job queries
  /// that single-job microbenchmarks cannot represent (section 7).
  double multi_stage_fraction = 0.0;
};

/// Groups a trace's jobs into workflows via the "W=<number>" token in job
/// names and summarizes each. Jobs without a tag are counted but not
/// grouped.
WorkflowReport ReconstructWorkflows(const trace::Trace& trace);

/// Parses the workflow tag from a job name; returns false when absent.
bool ParseWorkflowTag(std::string_view name, uint64_t* workflow_id);

}  // namespace swim::frameworks

#endif  // SWIM_FRAMEWORKS_WORKFLOW_H_
