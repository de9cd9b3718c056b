#include <string>

#include "common/units.h"
#include "frameworks/hive.h"
#include "frameworks/pig.h"
#include "frameworks/query_plan.h"
#include "frameworks/workflow.h"
#include "gtest/gtest.h"
#include "sim/replay.h"
#include "trace_oracle.h"

namespace swim::frameworks {
namespace {

// --- Hive compiler ---------------------------------------------------------

TEST(HiveCompilerTest, PureSelectIsMapOnly) {
  HiveQuerySpec spec;
  spec.kind = HiveQuerySpec::Kind::kSelect;
  spec.selectivity = 0.1;
  spec.projection = 0.5;
  auto chain = CompileHiveQuery(spec);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->stages.size(), 1u);
  EXPECT_TRUE(chain->stages[0].map_only);
  EXPECT_DOUBLE_EQ(chain->stages[0].shuffle_ratio, 0.0);
  EXPECT_NEAR(ChainOutputRatio(*chain), 0.05, 1e-12);
  EXPECT_EQ(chain->name_word, "select");
  EXPECT_EQ(chain->framework, trace::Framework::kHive);
}

TEST(HiveCompilerTest, GroupByAddsShuffleStage) {
  HiveQuerySpec spec;
  spec.kind = HiveQuerySpec::Kind::kInsert;
  spec.group_by = true;
  spec.aggregation_ratio = 0.01;
  auto chain = CompileHiveQuery(spec);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->stages.size(), 1u);
  EXPECT_FALSE(chain->stages[0].map_only);
  EXPECT_GT(chain->stages[0].shuffle_ratio, 0.0);
  EXPECT_NEAR(ChainOutputRatio(*chain), 0.01, 1e-12);
  EXPECT_EQ(chain->name_word, "insert");
}

TEST(HiveCompilerTest, JoinsAddStages) {
  HiveQuerySpec spec;
  spec.kind = HiveQuerySpec::Kind::kFromInsert;
  spec.joins = 2;
  spec.group_by = true;
  auto chain = CompileHiveQuery(spec);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->stages.size(), 3u);  // 2 joins + 1 group-by
  EXPECT_EQ(chain->name_word, "from");
}

TEST(HiveCompilerTest, OrderByAppendsStage) {
  HiveQuerySpec spec;
  spec.group_by = true;
  spec.order_by = true;
  auto chain = CompileHiveQuery(spec);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->stages.size(), 2u);
  EXPECT_EQ(chain->stages.back().role, "order-by");
}

TEST(HiveCompilerTest, RejectsBadRatios) {
  HiveQuerySpec spec;
  spec.selectivity = 0.0;
  EXPECT_FALSE(CompileHiveQuery(spec).ok());
  spec = HiveQuerySpec{};
  spec.projection = 1.5;
  EXPECT_FALSE(CompileHiveQuery(spec).ok());
  spec = HiveQuerySpec{};
  spec.joins = -1;
  EXPECT_FALSE(CompileHiveQuery(spec).ok());
  spec = HiveQuerySpec{};
  spec.group_by = true;
  spec.aggregation_ratio = 0.0;
  EXPECT_FALSE(CompileHiveQuery(spec).ok());
}

TEST(HiveCompilerTest, QueryTextMentionsClauses) {
  HiveQuerySpec spec;
  spec.kind = HiveQuerySpec::Kind::kInsert;
  spec.joins = 1;
  spec.group_by = true;
  spec.selectivity = 0.2;
  std::string text = HiveQueryText(spec);
  EXPECT_NE(text.find("INSERT"), std::string::npos);
  EXPECT_NE(text.find("JOIN"), std::string::npos);
  EXPECT_NE(text.find("GROUP BY"), std::string::npos);
  EXPECT_NE(text.find("WHERE"), std::string::npos);
}

// --- Pig compiler ------------------------------------------------------------

TEST(PigCompilerTest, MapSideOpsFuseToOneJob) {
  PigScriptSpec spec;
  spec.ops = {{PigOp::Kind::kLoad, 1.0},
              {PigOp::Kind::kFilter, 0.2},
              {PigOp::Kind::kForEach, 0.5},
              {PigOp::Kind::kStore, 1.0}};
  auto chain = CompilePigScript(spec);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->stages.size(), 1u);
  EXPECT_TRUE(chain->stages[0].map_only);
  EXPECT_NEAR(ChainOutputRatio(*chain), 0.1, 1e-12);
  EXPECT_EQ(chain->framework, trace::Framework::kPig);
}

TEST(PigCompilerTest, BlockingOpsCutStages) {
  auto chain = CompilePigScript(PigJoinScript(0.5, 0.8, 0.1));
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->stages.size(), 2u);  // cogroup + group
  EXPECT_GT(chain->stages[0].shuffle_ratio, 0.0);
}

TEST(PigCompilerTest, FilterFoldsIntoFollowingShuffle) {
  auto chain = CompilePigScript(SimplePigPipeline(0.25, 0.1));
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->stages.size(), 1u);
  // The 25% filter happens map-side of the group stage.
  EXPECT_NEAR(chain->stages[0].shuffle_ratio, 0.25, 1e-12);
  EXPECT_NEAR(chain->stages[0].output_ratio, 0.025, 1e-12);
}

TEST(PigCompilerTest, RejectsMalformedScripts) {
  PigScriptSpec spec;
  EXPECT_FALSE(CompilePigScript(spec).ok());
  spec.ops = {{PigOp::Kind::kFilter, 0.5}, {PigOp::Kind::kStore, 1.0}};
  EXPECT_FALSE(CompilePigScript(spec).ok());  // no LOAD
  spec.ops = {{PigOp::Kind::kLoad, 1.0}, {PigOp::Kind::kFilter, 0.5}};
  EXPECT_FALSE(CompilePigScript(spec).ok());  // no STORE
  spec.ops = {{PigOp::Kind::kLoad, 1.0},
              {PigOp::Kind::kFilter, 0.0},
              {PigOp::Kind::kStore, 1.0}};
  EXPECT_FALSE(CompilePigScript(spec).ok());  // bad ratio
}

// --- Chain arithmetic -----------------------------------------------------------

TEST(QueryPlanTest, ChainRatiosCompose) {
  JobChain chain;
  StageSpec a;
  a.output_ratio = 0.5;
  a.shuffle_ratio = 1.0;
  StageSpec b;
  b.output_ratio = 0.1;
  b.shuffle_ratio = 0.8;
  chain.stages = {a, b};
  EXPECT_NEAR(ChainOutputRatio(chain), 0.05, 1e-12);
  // Stage b sees 0.5x the input, so its shuffle contributes 0.5 * 0.8.
  EXPECT_NEAR(ChainShuffleRatio(chain), 1.0 + 0.4, 1e-12);
}

// --- Workflow tag parsing ---------------------------------------------------------

TEST(WorkflowTagTest, ParsesEmbeddedTags) {
  uint64_t id = 0;
  EXPECT_TRUE(ParseWorkflowTag("INSERT ... (Stage-2) W=417", &id));
  EXPECT_EQ(id, 417u);
  EXPECT_TRUE(ParseWorkflowTag("oozie:launcher:T=map-reduce:W=3", &id));
  EXPECT_EQ(id, 3u);
  EXPECT_FALSE(ParseWorkflowTag("plain job name", &id));
  EXPECT_FALSE(ParseWorkflowTag("W=", &id));
  EXPECT_FALSE(ParseWorkflowTag("", &id));
}

// --- Workflow generation -------------------------------------------------------------

TEST(WorkflowGeneratorTest, ProducesTaggedDependentJobs) {
  WorkflowGeneratorOptions options;
  options.workflows = 50;
  options.seed = 5;
  auto wt = GenerateWorkflowTrace(options);
  ASSERT_TRUE(wt.ok());
  EXPECT_EQ(wt->workflow_count, 50u);
  EXPECT_GE(wt->trace.size(), 50u);
  EXPECT_TRUE(oracle::ValidateTrace(wt->trace).ok());
  // Every job carries a parsable workflow tag.
  for (const auto& job : wt->trace.jobs()) {
    uint64_t id = 0;
    EXPECT_TRUE(ParseWorkflowTag(job.name, &id)) << job.name;
    EXPECT_EQ(wt->workflow_of.at(job.job_id), id);
  }
  // Dependencies reference earlier jobs of the same workflow.
  for (const auto& [child, parents] : wt->dependencies) {
    for (uint64_t parent : parents) {
      EXPECT_LT(parent, child);
      EXPECT_EQ(wt->workflow_of.at(parent), wt->workflow_of.at(child));
    }
  }
}

TEST(WorkflowGeneratorTest, Deterministic) {
  WorkflowGeneratorOptions options;
  options.workflows = 20;
  options.seed = 9;
  auto a = GenerateWorkflowTrace(options);
  auto b = GenerateWorkflowTrace(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->trace.size(), b->trace.size());
  for (size_t i = 0; i < a->trace.size(); ++i) {
    EXPECT_EQ(a->trace.JobAt(i), b->trace.JobAt(i));
  }
}

TEST(WorkflowGeneratorTest, StagesChainThroughPaths) {
  WorkflowGeneratorOptions options;
  options.workflows = 30;
  options.oozie_fraction = 0.0;
  auto wt = GenerateWorkflowTrace(options);
  ASSERT_TRUE(wt.ok());
  // For every dependency edge, the child's input path is the parent's
  // output path (output->input chaining).
  const std::vector<trace::JobRecord> jobs = wt->trace.jobs();
  std::unordered_map<uint64_t, const trace::JobRecord*> by_id;
  for (const auto& job : jobs) by_id[job.job_id] = &job;
  size_t checked = 0;
  for (const auto& [child, parents] : wt->dependencies) {
    ASSERT_EQ(parents.size(), 1u);
    EXPECT_EQ(by_id.at(child)->input_path, by_id.at(parents[0])->output_path);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(WorkflowGeneratorTest, RejectsBadOptions) {
  WorkflowGeneratorOptions options;
  options.workflows = 0;
  EXPECT_FALSE(GenerateWorkflowTrace(options).ok());
  options = {};
  options.span_seconds = -1;
  EXPECT_FALSE(GenerateWorkflowTrace(options).ok());
  options = {};
  options.oozie_fraction = 2.0;
  EXPECT_FALSE(GenerateWorkflowTrace(options).ok());
}

// --- Workflow reconstruction ------------------------------------------------------------

TEST(WorkflowReconstructionTest, RecoversGeneratedWorkflows) {
  WorkflowGeneratorOptions options;
  options.workflows = 80;
  options.seed = 13;
  auto wt = GenerateWorkflowTrace(options);
  ASSERT_TRUE(wt.ok());
  WorkflowReport report = ReconstructWorkflows(wt->trace);
  EXPECT_EQ(report.workflows.size(), 80u);
  EXPECT_EQ(report.tagged_jobs, wt->trace.size());
  EXPECT_EQ(report.untagged_jobs, 0u);
  EXPECT_GE(report.mean_stages, 1.0);
  EXPECT_GT(report.multi_stage_fraction, 0.2);
  for (const auto& summary : report.workflows) {
    EXPECT_GE(summary.stages, 1u);
    EXPECT_GE(summary.span_seconds, 0.0);
    EXPECT_GE(summary.critical_path_seconds, 0.0);
  }
}

TEST(WorkflowReconstructionTest, UntaggedJobsCounted) {
  trace::Trace t;
  trace::JobRecord job;
  job.job_id = 1;
  job.name = "ad_hoc_query";
  job.submit_time = 0;
  job.map_tasks = 1;
  t.AddJob(job);
  WorkflowReport report = ReconstructWorkflows(t);
  EXPECT_EQ(report.untagged_jobs, 1u);
  EXPECT_TRUE(report.workflows.empty());
}

// --- Workflow-aware replay -------------------------------------------------------------

TEST(WorkflowReplayTest, DependenciesDelayStages) {
  // Two jobs submitted simultaneously; the second depends on the first.
  trace::Trace t;
  trace::JobRecord a;
  a.job_id = 1;
  a.submit_time = 0;
  a.map_tasks = 1;
  a.map_task_seconds = 100;
  a.duration = 100;
  t.AddJob(a);
  trace::JobRecord b = a;
  b.job_id = 2;
  t.AddJob(b);

  sim::ReplayOptions options;
  options.cluster.nodes = 1;
  options.dependencies[2] = {1};
  auto result = sim::ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 2u);
  double latency_b = 0;
  for (const auto& o : result->outcomes) {
    if (o.job_id == 2) latency_b = o.latency;
  }
  // b waits for a (100 s) then runs (100 s).
  EXPECT_NEAR(latency_b, 200.0, 0.1);
  EXPECT_EQ(result->unfinished_jobs, 0u);
}

TEST(WorkflowReplayTest, RejectsUnknownJobIds) {
  trace::Trace t;
  trace::JobRecord a;
  a.job_id = 1;
  a.map_tasks = 1;
  a.map_task_seconds = 1;
  t.AddJob(a);
  sim::ReplayOptions options;
  options.dependencies[99] = {1};
  EXPECT_FALSE(sim::ReplayTrace(t, options).ok());
  options.dependencies.clear();
  options.dependencies[1] = {98};
  EXPECT_FALSE(sim::ReplayTrace(t, options).ok());
}

TEST(WorkflowReplayTest, CycleStallsButTerminates) {
  trace::Trace t;
  for (uint64_t id : {1u, 2u}) {
    trace::JobRecord job;
    job.job_id = id;
    job.map_tasks = 1;
    job.map_task_seconds = 10;
    t.AddJob(job);
  }
  sim::ReplayOptions options;
  options.dependencies[1] = {2};
  options.dependencies[2] = {1};
  auto result = sim::ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unfinished_jobs, 2u);
  EXPECT_TRUE(result->outcomes.empty());
}

TEST(WorkflowReplayTest, GeneratedWorkflowsCompleteEndToEnd) {
  WorkflowGeneratorOptions options;
  options.workflows = 60;
  options.seed = 17;
  auto wt = GenerateWorkflowTrace(options);
  ASSERT_TRUE(wt.ok());
  sim::ReplayOptions replay_options;
  replay_options.cluster.nodes = 50;
  replay_options.scheduler = "fair";
  replay_options.dependencies = wt->dependencies;
  auto result = sim::ReplayTrace(wt->trace, replay_options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unfinished_jobs, 0u);
  EXPECT_EQ(result->outcomes.size(), wt->trace.size());
}

}  // namespace
}  // namespace swim::frameworks
