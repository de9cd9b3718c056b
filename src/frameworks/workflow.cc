#include "frameworks/workflow.h"

#include <algorithm>
#include <cmath>

#include "common/flat_hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/units.h"
#include "frameworks/hive.h"
#include "frameworks/pig.h"

namespace swim::frameworks {
namespace {

/// Builds a randomized program for one workflow.
JobChain SampleChain(const WorkflowGeneratorOptions& options, Pcg32& rng) {
  std::vector<double> weights = {
      options.hive_select_weight, options.hive_insert_weight,
      options.hive_from_weight, options.pig_weight};
  switch (rng.NextDiscrete(weights)) {
    case 0: {
      HiveQuerySpec spec;
      spec.kind = HiveQuerySpec::Kind::kSelect;
      spec.selectivity = rng.NextDouble(0.01, 0.8);
      spec.projection = rng.NextDouble(0.1, 1.0);
      spec.group_by = rng.NextBernoulli(0.5);
      spec.aggregation_ratio = rng.NextDouble(0.001, 0.1);
      auto chain = CompileHiveQuery(spec);
      SWIM_CHECK_OK(chain.status());
      return *std::move(chain);
    }
    case 1: {
      HiveQuerySpec spec;
      spec.kind = HiveQuerySpec::Kind::kInsert;
      spec.selectivity = rng.NextDouble(0.1, 1.0);
      spec.projection = rng.NextDouble(0.3, 1.0);
      spec.joins = static_cast<int>(rng.NextBounded(3));
      spec.group_by = rng.NextBernoulli(0.6);
      spec.aggregation_ratio = rng.NextDouble(0.001, 0.2);
      auto chain = CompileHiveQuery(spec);
      SWIM_CHECK_OK(chain.status());
      return *std::move(chain);
    }
    case 2: {
      HiveQuerySpec spec;
      spec.kind = HiveQuerySpec::Kind::kFromInsert;
      spec.joins = 1 + static_cast<int>(rng.NextBounded(2));
      spec.group_by = true;
      spec.aggregation_ratio = rng.NextDouble(0.001, 0.05);
      spec.order_by = rng.NextBernoulli(0.3);
      auto chain = CompileHiveQuery(spec);
      SWIM_CHECK_OK(chain.status());
      return *std::move(chain);
    }
    default: {
      PigScriptSpec spec =
          rng.NextBernoulli(0.4)
              ? PigJoinScript(rng.NextDouble(0.05, 0.8),
                              rng.NextDouble(0.2, 1.0),
                              rng.NextDouble(0.01, 0.3))
              : SimplePigPipeline(rng.NextDouble(0.05, 0.8),
                                  rng.NextDouble(0.01, 0.3));
      auto chain = CompilePigScript(spec);
      SWIM_CHECK_OK(chain.status());
      return *std::move(chain);
    }
  }
}

std::string StageJobName(const JobChain& chain, uint64_t workflow_id,
                         size_t stage_index, bool oozie_wrapped) {
  std::string tag = "W=" + std::to_string(workflow_id);
  if (chain.framework == trace::Framework::kPig) {
    return "PigLatin:wf" + std::to_string(workflow_id) + "_s" +
           std::to_string(stage_index + 1) + ".pig " + tag;
  }
  std::string upper = chain.name_word;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  std::string name = upper + " OVERWRITE TABLE t(Stage-" +
                     std::to_string(stage_index + 1) + ") " + tag;
  if (oozie_wrapped) name += " via-oozie";
  return name;
}

}  // namespace

StatusOr<WorkflowTrace> GenerateWorkflowTrace(
    const WorkflowGeneratorOptions& options) {
  if (options.workflows == 0) {
    return InvalidArgumentError("workflows must be >= 1");
  }
  if (options.span_seconds <= 0.0) {
    return InvalidArgumentError("span_seconds must be positive");
  }
  if (options.oozie_fraction < 0.0 || options.oozie_fraction > 1.0) {
    return InvalidArgumentError("oozie_fraction must be in [0, 1]");
  }

  Pcg32 rng(options.seed, /*stream=*/0xf10d);
  WorkflowTrace result;
  result.workflow_count = options.workflows;
  uint64_t next_job_id = 1;
  std::vector<trace::JobRecord> jobs;

  for (uint64_t w = 0; w < options.workflows; ++w) {
    JobChain chain = SampleChain(options, rng);
    bool oozie_wrapped = rng.NextBernoulli(options.oozie_fraction);
    double submit = rng.NextDouble() * options.span_seconds;
    uint64_t previous_job = 0;

    if (oozie_wrapped) {
      // The Oozie launcher: a one-map bookkeeping job that precedes the
      // chain (the "oozie" first words in Figure 10).
      trace::JobRecord launcher;
      launcher.job_id = next_job_id++;
      launcher.name = "oozie:launcher:T=map-reduce:W=" + std::to_string(w);
      launcher.submit_time = submit;
      launcher.duration = rng.NextDouble(5.0, 20.0);
      launcher.input_bytes = 10 * kKB;
      launcher.output_bytes = 1 * kKB;
      launcher.map_tasks = 1;
      launcher.map_task_seconds = launcher.duration;
      result.workflow_of[launcher.job_id] = w;
      previous_job = launcher.job_id;
      submit += launcher.duration + rng.NextDouble(1.0, 5.0);
      jobs.push_back(std::move(launcher));
    }

    double stage_input =
        rng.NextLognormal(options.input_log_mean, options.input_log_sigma);
    std::string input_path = "warehouse/t" +
                             std::to_string(rng.NextBounded(500));
    for (size_t s = 0; s < chain.stages.size(); ++s) {
      const StageSpec& stage = chain.stages[s];
      trace::JobRecord job;
      job.job_id = next_job_id++;
      job.name = StageJobName(chain, w, s, oozie_wrapped);
      job.submit_time = submit;
      job.input_bytes = stage_input;
      job.shuffle_bytes = stage_input * stage.shuffle_ratio;
      job.output_bytes = stage_input * stage.output_ratio;
      job.map_task_seconds =
          std::max(1.0, stage.map_seconds_per_gb * stage_input / kGB);
      if (!stage.map_only) {
        job.reduce_task_seconds = std::max(
            1.0, stage.reduce_seconds_per_gb * job.shuffle_bytes / kGB);
      }
      double typical_task = rng.NextDouble(20.0, 60.0);
      job.map_tasks = std::max<int64_t>(
          1, static_cast<int64_t>(job.map_task_seconds / typical_task));
      if (job.reduce_task_seconds > 0.0) {
        job.reduce_tasks = std::max<int64_t>(
            1, static_cast<int64_t>(job.reduce_task_seconds / typical_task));
      }
      // Duration: a simple slot-throughput model (one wave per ~50 slots).
      job.duration = std::max(
          10.0, job.TotalTaskSeconds() / std::max<double>(
                    50.0, static_cast<double>(job.map_tasks)));
      job.input_path = input_path;
      job.output_path = (s + 1 < chain.stages.size())
                            ? "tmp/wf" + std::to_string(w) + "_s" +
                                  std::to_string(s + 1)
                            : "warehouse/out_wf" + std::to_string(w);
      input_path = job.output_path;

      if (previous_job != 0) {
        result.dependencies[job.job_id].push_back(previous_job);
      }
      result.workflow_of[job.job_id] = w;
      previous_job = job.job_id;

      stage_input = job.output_bytes;
      submit += job.duration + rng.NextDouble(1.0, 10.0);
      jobs.push_back(std::move(job));
    }
  }
  result.trace.SetJobs(std::move(jobs));
  return result;
}

bool ParseWorkflowTag(std::string_view name, uint64_t* workflow_id) {
  size_t position = name.find("W=");
  if (position == std::string_view::npos) return false;
  size_t begin = position + 2;
  size_t end = begin;
  while (end < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[end]))) {
    ++end;
  }
  if (end == begin) return false;
  int64_t value = 0;
  if (!ParseInt64(name.substr(begin, end - begin), &value) || value < 0) {
    return false;
  }
  *workflow_id = static_cast<uint64_t>(value);
  return true;
}

WorkflowReport ReconstructWorkflows(const trace::Trace& trace) {
  WorkflowReport report;
  const trace::JobColumns c = trace.columns();
  // Each row's workflow tag, or kUntagged.
  constexpr uint64_t kUntagged = ~uint64_t{0};
  std::vector<uint64_t> workflow_of(c.size, kUntagged);
  FlatHashMap<uint64_t, WorkflowSummary> grouped;
  for (size_t i = 0; i < c.size; ++i) {
    const std::string_view name =
        c.name_id[i] == kNoStringId ? std::string_view() : c.names[c.name_id[i]];
    uint64_t workflow_id = 0;
    if (!ParseWorkflowTag(name, &workflow_id)) {
      ++report.untagged_jobs;
      continue;
    }
    workflow_of[i] = workflow_id;
    ++report.tagged_jobs;
    WorkflowSummary& summary = grouped[workflow_id];
    if (summary.job_ids.empty()) {
      summary.workflow_id = workflow_id;
      summary.input_bytes = c.input_bytes[i];
      summary.framework = trace::ClassifyFramework(FirstWordOfJobName(name));
      summary.span_seconds = c.submit_time[i];  // temporarily: first submit
    }
    summary.job_ids.push_back(c.job_id[i]);
    summary.output_bytes = c.output_bytes[i];
    summary.total_task_seconds +=
        c.map_task_seconds[i] + c.reduce_task_seconds[i];
    summary.critical_path_seconds += c.duration[i];
    summary.span_seconds =
        std::min(summary.span_seconds, c.submit_time[i]);  // keep min submit
    ++summary.stages;
  }
  // Second pass for spans (need max finish per workflow).
  FlatHashMap<uint64_t, double> last_finish;
  last_finish.reserve(grouped.size());
  for (size_t i = 0; i < c.size; ++i) {
    if (workflow_of[i] == kUntagged) continue;
    double& finish = last_finish[workflow_of[i]];
    finish = std::max(finish, c.submit_time[i] + c.duration[i]);
  }

  // Emit in ascending workflow-id order (the order the std::map-based
  // implementation produced).
  std::vector<uint64_t> ordered_ids;
  ordered_ids.reserve(grouped.size());
  for (const auto& [workflow_id, summary] : grouped) {
    ordered_ids.push_back(workflow_id);
  }
  std::sort(ordered_ids.begin(), ordered_ids.end());

  double stage_sum = 0.0;
  size_t multi = 0;
  report.workflows.reserve(ordered_ids.size());
  for (uint64_t workflow_id : ordered_ids) {
    WorkflowSummary& summary = grouped.at(workflow_id);
    summary.span_seconds = last_finish[workflow_id] - summary.span_seconds;
    stage_sum += static_cast<double>(summary.stages);
    report.max_stages =
        std::max(report.max_stages, static_cast<double>(summary.stages));
    if (summary.stages > 1) ++multi;
    report.workflows.push_back(std::move(summary));
  }
  if (!report.workflows.empty()) {
    report.mean_stages = stage_sum / static_cast<double>(report.workflows.size());
    report.multi_stage_fraction =
        static_cast<double>(multi) /
        static_cast<double>(report.workflows.size());
  }
  return report;
}

}  // namespace swim::frameworks
