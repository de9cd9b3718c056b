#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "gtest/gtest.h"
#include "sim/replay.h"
#include "sim/runnable_set.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace swim::sim {
namespace {

trace::JobRecord SimpleJob(uint64_t id, double submit, int64_t maps,
                           double map_secs, int64_t reduces = 0,
                           double reduce_secs = 0.0, double bytes = 1e6) {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = map_secs + reduce_secs;
  job.input_bytes = bytes;
  job.map_tasks = maps;
  job.map_task_seconds = map_secs;
  job.reduce_tasks = reduces;
  job.reduce_task_seconds = reduce_secs;
  if (reduces > 0) job.shuffle_bytes = bytes / 10;
  return job;
}

ReplayOptions SmallCluster(const std::string& scheduler = "fifo") {
  ReplayOptions options;
  options.cluster.nodes = 1;
  options.cluster.map_slots_per_node = 2;
  options.cluster.reduce_slots_per_node = 2;
  options.scheduler = scheduler;
  return options;
}

// --- Basic execution -------------------------------------------------------

TEST(ReplayTest, SingleJobRunsAtIdealLatency) {
  trace::Trace t;
  // 2 map tasks of 50s each on 2 map slots -> one wave of 50s, then one
  // reduce task of 30s.
  t.AddJob(SimpleJob(1, 0, 2, 100, 1, 30));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_NEAR(result->outcomes[0].latency, 80.0, 0.01);
  EXPECT_NEAR(result->outcomes[0].ideal_latency, 80.0, 0.01);
  EXPECT_NEAR(result->outcomes[0].Slowdown(), 1.0, 0.01);
}

TEST(ReplayTest, MultipleWavesWhenSlotsScarce) {
  trace::Trace t;
  // 4 map tasks of 25s each on 2 slots -> two waves of 25s = 50s.
  t.AddJob(SimpleJob(1, 0, 4, 100));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 50.0, 0.01);
  // Ideal (one wave) would be 25s.
  EXPECT_NEAR(result->outcomes[0].Slowdown(), 2.0, 0.01);
}

TEST(ReplayTest, ReducesWaitForMaps) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 40, 1, 40));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 80.0, 0.01);
}

TEST(ReplayTest, AllJobsComplete) {
  trace::Trace t;
  for (int i = 0; i < 50; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 5.0, 1 + i % 3, 30.0 + i, i % 2, 10));
  }
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 50u);
}

TEST(ReplayTest, DeterministicForSeed) {
  trace::Trace t;
  for (int i = 0; i < 30; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 3.0, 2, 40, 1, 20));
  }
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 0.2;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
  }
}

// --- Occupancy conservation ---------------------------------------------------

TEST(ReplayTest, OccupancyIntegralEqualsTaskSeconds) {
  trace::Trace t;
  double total_task_seconds = 0;
  for (int i = 0; i < 20; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 100.0, 2, 60, 1, 30));
    total_task_seconds += 90;
  }
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  double integral = 0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, total_task_seconds, 1.0);
}

TEST(ReplayTest, UtilizationBounded) {
  trace::Trace t;
  for (int i = 0; i < 100; ++i) t.AddJob(SimpleJob(i + 1, i * 1.0, 4, 200));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->utilization, 0.0);
  EXPECT_LE(result->utilization, 1.0 + 1e-9);
}

// --- Task capping ---------------------------------------------------------------

TEST(ReplayTest, TaskCapPreservesTaskSeconds) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 100000, 5000.0));
  ReplayOptions options = SmallCluster();
  options.max_tasks_per_job = 10;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  // 10 merged tasks of 500s on 2 slots -> 5 waves of 500s = 2500s.
  EXPECT_NEAR(result->outcomes[0].latency, 2500.0, 0.1);
}

// Satellite regression: a zero ideal latency with nonzero observed latency
// used to report slowdown 0 (better-than-ideal), dragging MeanSlowdown
// *down* for the degenerate jobs it should flag. The convention is now
// +infinity for pure queueing on zero ideal work; only a genuinely free
// job (both zero) is slowdown 1.
TEST(ReplayTest, SlowdownConventionOnZeroIdeal) {
  JobOutcome outcome;
  outcome.ideal_latency = 40.0;
  outcome.latency = 80.0;
  EXPECT_DOUBLE_EQ(outcome.Slowdown(), 2.0);
  outcome.ideal_latency = 0.0;
  EXPECT_TRUE(std::isinf(outcome.Slowdown()));
  EXPECT_GT(outcome.Slowdown(), 0.0);
  outcome.latency = 0.0;
  EXPECT_DOUBLE_EQ(outcome.Slowdown(), 1.0);
}

// --- Scheduler comparisons --------------------------------------------------------

/// One huge job submitted just before many small jobs: the paper's
/// head-of-line-blocking scenario (section 6.2: "poor management of a
/// single large job potentially impacts performance for a large number of
/// small jobs").
trace::Trace HeadOfLineTrace() {
  trace::Trace t;
  trace::JobRecord huge = SimpleJob(1, 0, 40, 40 * 600.0, 0, 0, 1e13);
  t.AddJob(huge);
  for (int i = 0; i < 20; ++i) {
    t.AddJob(SimpleJob(2 + i, 1.0 + i, 1, 10, 0, 0, 1e6));
  }
  return t;
}

TEST(SchedulerTest, FifoBlocksSmallJobsBehindHuge) {
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto fair = ReplayTrace(HeadOfLineTrace(), SmallCluster("fair"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(fair.ok());
  double fifo_small_p50 = fifo->LatencyQuantile(/*small_jobs=*/true, 0.5);
  double fair_small_p50 = fair->LatencyQuantile(/*small_jobs=*/true, 0.5);
  // Under FIFO the small jobs wait for the huge job's map waves.
  EXPECT_GT(fifo_small_p50, 10 * fair_small_p50);
}

TEST(SchedulerTest, TwoTierProtectsSmallJobs) {
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto tiered = ReplayTrace(HeadOfLineTrace(), SmallCluster("two-tier"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(tiered.ok());
  EXPECT_LT(tiered->LatencyQuantile(true, 0.9),
            fifo->LatencyQuantile(true, 0.9) / 5);
  // The huge job still completes.
  EXPECT_EQ(tiered->CountJobs(false), 1u);
}

TEST(SchedulerTest, SrptLetsSmallJobsJumpTheQueue) {
  // SRPT needs no tier threshold: the small jobs' remaining work out-ranks
  // the elephant's the moment a slot frees, so they drain ahead of its
  // remaining waves.
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto srpt = ReplayTrace(HeadOfLineTrace(), SmallCluster("srpt"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(srpt.ok());
  EXPECT_LT(srpt->LatencyQuantile(true, 0.5),
            fifo->LatencyQuantile(true, 0.5) / 10);
  // The elephant still completes.
  EXPECT_EQ(srpt->CountJobs(false), 1u);
  EXPECT_EQ(srpt->unfinished_jobs, 0u);
}

// One large job ahead of three small ones, for a one-slot cluster.
trace::Trace OneSlotTrace() {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 4, 400.0, 2, 100.0, 1e13));  // large job
  for (int i = 0; i < 3; ++i) {
    t.AddJob(SimpleJob(2 + i, 5.0 + i, 1, 10.0, 0, 0.0, 1e6));
  }
  return t;
}

ReplayOptions OneSlotCluster() {
  ReplayOptions options;
  options.cluster.nodes = 1;
  options.cluster.map_slots_per_node = 1;
  options.cluster.reduce_slots_per_node = 1;
  return options;
}

// Satellite regression: on a 1-slot pool the capacity tier's cap
// (share x slots = 0.7 truncated to 0) starved large jobs forever. The
// clamp guarantees the tier >= 1 slot, so the trace drains. The exact
// schedule is pinned by the "one-slot" golden digest.
TEST(SchedulerTest, TwoTierDrainsLargeJobsOnOneSlotCluster) {
  ReplayOptions options = OneSlotCluster();
  options.scheduler = "two-tier";
  auto result = ReplayTrace(OneSlotTrace(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 4u);
  EXPECT_EQ(result->unfinished_jobs, 0u);
}

TEST(SchedulerTest, FactoryNames) {
  EXPECT_EQ(MakeScheduler("fifo").value()->name(), "FIFO");
  EXPECT_EQ(MakeScheduler("FAIR").value()->name(), "Fair");
  EXPECT_EQ(MakeScheduler("two-tier").value()->name(), "TwoTier");
  EXPECT_EQ(MakeScheduler("srpt").value()->name(), "SRPT");
  EXPECT_EQ(MakeScheduler("DeadLine").value()->name(), "Deadline");
}

// Satellite regression: unknown policy names were silently mapped to
// FIFO, so a typo'd sweep replayed every cell with the wrong policy.
// They must now be a hard error that names the valid policies.
TEST(SchedulerTest, FactoryRejectsUnknownPolicies) {
  for (const char* policy : {"unknown", "fare", "", "fifo2"}) {
    auto scheduler = MakeScheduler(policy);
    ASSERT_FALSE(scheduler.ok()) << policy;
    EXPECT_NE(scheduler.status().message().find("fifo, fair, two-tier"),
              std::string::npos)
        << scheduler.status().message();
  }
  // The engine surfaces the same error instead of replaying as FIFO.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 2, 10));
  ReplayOptions options = SmallCluster();
  options.scheduler = "fare";
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

// --- Stragglers ---------------------------------------------------------------------

TEST(StragglerTest, InjectionIncreasesLatency) {
  trace::Trace t;
  for (int i = 0; i < 200; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 50.0, 2, 60, 0, 0));
  }
  ReplayOptions clean = SmallCluster();
  ReplayOptions slow = SmallCluster();
  slow.straggler_probability = 0.5;
  slow.straggler_factor = 10.0;
  auto clean_result = ReplayTrace(t, clean);
  auto slow_result = ReplayTrace(t, slow);
  ASSERT_TRUE(clean_result.ok());
  ASSERT_TRUE(slow_result.ok());
  EXPECT_GT(slow_result->LatencyQuantile(true, 0.9),
            clean_result->LatencyQuantile(true, 0.9) * 2);
}

TEST(StragglerTest, SingleWaveJobsFullyExposed) {
  // A job with one map task hit by a straggler runs straggler_factor x
  // longer - the paper's point that few-task jobs cannot hide stragglers.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 100));
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 5.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 500.0, 0.1);
}

TEST(StragglerTest, SpeculationCapsMultiTaskJobs) {
  // 4 map tasks, all straggling 10x; with speculation the siblings expose
  // them and the penalty caps at 2x.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 4, 400));  // 4 tasks x 100 s
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 10.0;
  auto plain = ReplayTrace(t, options);
  options.speculative_execution = true;
  auto speculative = ReplayTrace(t, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(speculative.ok());
  // Plain: 2 waves x 1000 s; speculative: 2 waves x 200 s.
  EXPECT_NEAR(plain->outcomes[0].latency, 2000.0, 0.1);
  EXPECT_NEAR(speculative->outcomes[0].latency, 400.0, 0.1);
}

TEST(StragglerTest, SpeculationCannotHelpSingleTaskJobs) {
  // The paper's section 6.2 point: a single-task job has no sibling to
  // compare against, so speculation never triggers.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 100));
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 10.0;
  options.speculative_execution = true;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 1000.0, 0.1);  // full 10x
}

// --- Validation -----------------------------------------------------------------------

TEST(ReplayTest, RejectsBadInputs) {
  trace::Trace empty;
  EXPECT_FALSE(ReplayTrace(empty).ok());
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 10));
  ReplayOptions options;
  options.cluster.nodes = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.max_tasks_per_job = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

TEST(ReplayTest, RejectsBadStragglerOptions) {
  // A probability of 7 used to make llround(surviving * 7) stragglers out
  // of `surviving` tasks: more completions than launches, a replay that
  // "finished" fewer jobs than it was given and negative utilization.
  trace::Trace t;
  for (uint64_t id = 1; id <= 50; ++id) {
    t.AddJob(SimpleJob(id, 10.0 * static_cast<double>(id), 40, 1200, 4, 160));
  }
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double probability : {7.0, 1.0 + 1e-9, -0.1, kNan, kInf}) {
    ReplayOptions options;
    options.straggler_probability = probability;
    auto result = ReplayTrace(t, options);
    ASSERT_FALSE(result.ok()) << probability;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("straggler_probability"),
              std::string::npos);
  }
  for (double factor : {0.5, 0.0, -2.0, kNan, kInf}) {
    ReplayOptions options;
    options.straggler_probability = 0.1;
    options.straggler_factor = factor;
    auto result = ReplayTrace(t, options);
    ASSERT_FALSE(result.ok()) << factor;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("straggler_factor"),
              std::string::npos);
  }
  // The boundaries are valid: every task straggles, at factor 1 (a no-op).
  ReplayOptions options;
  options.straggler_probability = 1.0;
  options.straggler_factor = 1.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 50u);
}

TEST(ReplayTest, PostconditionRejectsInconsistentResults) {
  ReplayResult result;
  result.outcomes.resize(8);
  result.unfinished_jobs = 2;
  result.utilization = 0.5;
  EXPECT_TRUE(CheckReplayResult(result, 10).ok());
  // Lost jobs: the shape of the unchecked --stragglers 7 replay.
  Status lost = CheckReplayResult(result, 12);
  EXPECT_EQ(lost.code(), StatusCode::kInternal);
  EXPECT_NE(lost.message().find("8 outcomes + 2 unfinished != 12"),
            std::string::npos)
      << lost.message();
  for (double utilization :
       {-3048.72, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    result.utilization = utilization;
    EXPECT_EQ(CheckReplayResult(result, 10).code(), StatusCode::kInternal)
        << utilization;
  }
  result.utilization = 1.0;
  EXPECT_TRUE(CheckReplayResult(result, 10).ok());
}

// --- Failure injection ------------------------------------------------------

trace::Trace FailureFleet(int jobs = 40) {
  trace::Trace t;
  for (int i = 1; i <= jobs; ++i) {
    t.AddJob(SimpleJob(static_cast<uint64_t>(i), 5.0 * i, 4, 120, 2, 40));
  }
  return t;
}

TEST(FailureTest, RejectsBadFailureOptions) {
  trace::Trace t = FailureFleet(1);
  ReplayOptions options;
  options.failures.task_failure_probability = 1.5;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.failure_point = 0.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.max_attempts = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.node_loss_per_hour = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.retry_backoff_seconds = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

TEST(FailureTest, DisabledModelLeavesReplayUntouched) {
  // With both failure knobs at zero the failure RNG streams are never
  // consulted: results (incl. straggler draws) must equal a run with the
  // model's other knobs set to arbitrary values.
  trace::Trace t = FailureFleet();
  ReplayOptions plain = SmallCluster("fair");
  plain.straggler_probability = 0.1;
  ReplayOptions with_knobs = plain;
  with_knobs.failures.max_attempts = 2;
  with_knobs.failures.retry_backoff_seconds = 99;
  with_knobs.failures.failure_point = 0.9;
  auto a = ReplayTrace(t, plain);
  auto b = ReplayTrace(t, with_knobs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
    EXPECT_EQ(a->outcomes[i].retries, 0);
  }
  EXPECT_EQ(b->failures.task_failures, 0);
  EXPECT_EQ(b->failures.node_losses, 0);
  EXPECT_EQ(b->failures.retries, 0);
  EXPECT_DOUBLE_EQ(b->failures.failed_task_seconds, 0.0);
}

TEST(FailureTest, DeterministicForSeed) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fair");
  options.straggler_probability = 0.05;
  options.failures.task_failure_probability = 0.1;
  options.failures.node_loss_per_hour = 2.0;
  options.seed = 77;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
    EXPECT_EQ(a->outcomes[i].retries, b->outcomes[i].retries);
  }
  EXPECT_EQ(a->failures.task_failures, b->failures.task_failures);
  EXPECT_EQ(a->failures.node_losses, b->failures.node_losses);
  EXPECT_EQ(a->failures.tasks_lost_to_nodes, b->failures.tasks_lost_to_nodes);
  EXPECT_DOUBLE_EQ(a->failures.failed_task_seconds,
                   b->failures.failed_task_seconds);
  // A different seed must actually change the draw.
  options.seed = 78;
  auto c = ReplayTrace(t, options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->failures.task_failures, c->failures.task_failures);
}

TEST(FailureTest, RetriesRecoverFailedTasks) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 0.2;
  options.failures.max_attempts = 8;  // generous budget: everything finishes
  options.failures.retry_backoff_seconds = 1.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 40u);
  EXPECT_EQ(result->unfinished_jobs, 0u);
  EXPECT_GT(result->failures.task_failures, 0);
  // Every failed attempt was eventually re-executed.
  EXPECT_EQ(result->failures.retries, result->failures.task_failures);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  int64_t outcome_retries = 0;
  for (const auto& o : result->outcomes) outcome_retries += o.retries;
  EXPECT_EQ(outcome_retries, result->failures.retries);
}

TEST(FailureTest, CertainFailureKillsEveryJob) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 1.0;
  options.failures.max_attempts = 2;
  options.failures.retry_backoff_seconds = 0.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcomes.empty());
  EXPECT_EQ(result->failures.failed_jobs, 40);
  EXPECT_EQ(result->unfinished_jobs, 40u);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  // Wasted time never exceeds what the attempt budget allows.
  EXPECT_GT(result->failures.task_failures, 0);
  // No job finished, so the makespan is 0 while the failed attempts kept
  // slots busy: utilization is measured up to the last event instead of
  // reporting a ratio far above 1.
  EXPECT_GT(result->utilization, 0.0);
  EXPECT_LE(result->utilization, 1.0);
}

TEST(FailureTest, FailuresSlowJobsDown) {
  trace::Trace t = FailureFleet();
  ReplayOptions clean = SmallCluster("fair");
  ReplayOptions faulty = clean;
  faulty.failures.task_failure_probability = 0.25;
  faulty.failures.max_attempts = 10;
  auto a = ReplayTrace(t, clean);
  auto b = ReplayTrace(t, faulty);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->outcomes.size(), 40u);
  EXPECT_GT(b->MeanSlowdown(true), a->MeanSlowdown(true));
}

TEST(FailureTest, NodeLossKillsRunningTasks) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.node_loss_per_hour = 30.0;  // aggressive: ~1 per 2 min
  options.failures.max_attempts = 10;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->failures.node_losses, 0);
  EXPECT_GT(result->failures.tasks_lost_to_nodes, 0);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  EXPECT_EQ(result->failures.task_failures, 0);  // only node kills active
  // Generous attempt budget: the work still completes.
  EXPECT_EQ(result->outcomes.size(), 40u);
}

TEST(FailureTest, ComposesWithStragglersAndSpeculation) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("two-tier");
  options.straggler_probability = 0.1;
  options.speculative_execution = true;
  options.failures.task_failure_probability = 0.1;
  options.failures.node_loss_per_hour = 5.0;
  options.failures.max_attempts = 12;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 40u);
  EXPECT_GT(result->failures.task_failures, 0);
  EXPECT_GT(result->failures.retries, 0);
  auto again = ReplayTrace(t, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->failures.retries, again->failures.retries);
}

// --- Occupancy gap jumping --------------------------------------------------

TEST(OccupancyTest, WeekLongIdleGapReplaysFast) {
  // Regression for the retired hour-by-hour Advance loop: two short jobs a
  // week apart used to cost one bucket iteration per idle hour. The
  // gap-jumping meter must fill the same buckets (zeros in between, same
  // vector length) in O(boundary hours), which shows up as wall time.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 2, 100));
  t.AddJob(SimpleJob(2, 7.0 * 86400.0, 2, 100));
  auto start = std::chrono::steady_clock::now();
  auto result = ReplayTrace(t, SmallCluster());
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 2u);
  // 7 days = 168 hours; the second job finishes 50s into hour 168.
  ASSERT_EQ(result->hourly_occupancy.size(), 169u);
  double integral = 0.0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, 200.0, 1e-6);  // 2x100s maps per job, 2 jobs
  for (size_t h = 1; h < 168; ++h) {
    EXPECT_EQ(result->hourly_occupancy[h], 0.0) << "hour " << h;
  }
  // Generous bound (debug/sanitizer builds): the retired loop took
  // millions of iterations; the jump takes thousands of x fewer.
  EXPECT_LT(elapsed, 0.5);
}

TEST(OccupancyTest, MultiYearGapStillExact) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 60));
  t.AddJob(SimpleJob(2, 3.0 * 365.0 * 86400.0, 1, 60));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  double integral = 0.0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, 120.0, 1e-6);
  EXPECT_EQ(result->hourly_occupancy.size(), 26281u);  // 3*365*24 + 1
}

// --- Scheduler tie-breaking -------------------------------------------------

// Reference RunnableView over a flat list of runnable job indices:
// partitions `runnable` in place, interactive jobs first, and heap-orders
// each tier by SubmitsBefore with std::make_heap. The view borrows
// `runnable` and is valid until it is next modified.
RunnableView MakeRunnableView(Span<SimJob> jobs,
                              std::vector<size_t>& runnable) {
  const auto large_begin =
      std::partition(runnable.begin(), runnable.end(),
                     [&](size_t index) { return jobs[index].is_small; });
  // std::make_heap keeps the comparator's greatest element at [0]; order
  // by "submits later" so that element is the earliest submitter.
  const auto later = [&](size_t a, size_t b) {
    return SubmitsBefore(jobs, b, a);
  };
  std::make_heap(runnable.begin(), large_begin, later);
  std::make_heap(large_begin, runnable.end(), later);
  const size_t small_count =
      static_cast<size_t>(large_begin - runnable.begin());
  return {Span<size_t>(runnable.data(), small_count),
          Span<size_t>(runnable.data() + small_count,
                       runnable.size() - small_count)};
}

// The runnable set handed to PickJob is built incrementally, so the heap
// layout inside each tier depends on insertion history. Each insertion
// order below builds the same set twice - a flat list through
// MakeRunnableView, and a RunnableSet filled in that order - and every
// build must yield the same pick.
const std::vector<std::vector<size_t>> kInsertionOrders = {
    {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};

void ExpectPickUnderOrders(Scheduler& scheduler,
                           const std::vector<SimJob>& jobs,
                           const std::vector<std::vector<size_t>>& orders,
                           const SchedulerContext& context, int want) {
  const size_t small_jobs = static_cast<size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const SimJob& job) { return job.is_small; }));
  for (const std::vector<size_t>& order : orders) {
    std::vector<size_t> flat = order;
    EXPECT_EQ(scheduler.PickJob(jobs, MakeRunnableView(jobs, flat),
                                TaskKind::kMap, 8, context),
              want)
        << scheduler.name() << " over a flat list";
    RunnableSet set;
    set.Reset(jobs, small_jobs);
    for (size_t index : order) set.Insert(index);
    EXPECT_EQ(
        scheduler.PickJob(jobs, set.view(), TaskKind::kMap, 8, context),
        want)
        << scheduler.name() << " over a RunnableSet";
  }
}

TEST(SchedulerTieBreakTest, EqualJobsResolveBySubmitThenIndex) {
  // Four identical jobs, two submit-time groups, alternating tiers. Every
  // policy must pick the earliest submit, lowest index - for FIFO that
  // means comparing the two tier heads, which tie on submit time here.
  std::vector<SimJob> jobs(4);
  std::vector<trace::JobRecord> records(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, i < 2 ? 100.0 : 50.0, 4, 40);
    jobs[i].job_id = records[i].job_id;
    jobs[i].submit_time = records[i].submit_time;
    jobs[i].maps_total = 4;
    jobs[i].is_small = i % 2 == 0;
  }
  SchedulerContext context;
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    auto scheduler = MakeScheduler(policy).value();
    // Jobs 2 and 3 share submit 50 (earliest): index 2 must win.
    ExpectPickUnderOrders(*scheduler, jobs, kInsertionOrders, context, 2);
    // With the earliest pair excluded, jobs 0/1 share submit 100: index 0.
    ExpectPickUnderOrders(*scheduler, jobs, {{0, 1}, {1, 0}}, context, 0);
  }
  // Swap the tiers of jobs 2 and 3: the winner now sits in the capacity
  // tier, and FIFO must prefer that tier's head over the interactive one.
  jobs[2].is_small = false;
  jobs[3].is_small = true;
  FifoScheduler fifo;
  ExpectPickUnderOrders(fifo, jobs, kInsertionOrders, context, 2);
}

TEST(SchedulerTieBreakTest, FairTieOnSlotCountsPinsToSubmitThenIndex) {
  std::vector<SimJob> jobs(3);
  std::vector<trace::JobRecord> records(3);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 10.0, 4, 40);
    jobs[i].job_id = records[i].job_id;
    jobs[i].submit_time = 10.0;
    jobs[i].maps_total = 4;
  }
  jobs[0].maps_launched = 2;  // holds more slots: loses despite index 0
  FairScheduler fair;
  SchedulerContext context;
  ExpectPickUnderOrders(fair, jobs, {{0, 1, 2}, {2, 1, 0}}, context, 1);
}

TEST(SchedulerTieBreakTest, SrptPicksLeastRemainingWorkUnderPermutation) {
  std::vector<SimJob> jobs(4);
  std::vector<trace::JobRecord> records(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 10.0 * static_cast<double>(i), 4, 40);
    jobs[i].job_id = records[i].job_id;
    jobs[i].submit_time = records[i].submit_time;
    jobs[i].maps_total = 4;
    // Remaining work 400, 320, 240, 160: the latest submit has the least.
    jobs[i].map_task_duration = 100.0 - 20.0 * static_cast<double>(i);
  }
  SrptScheduler srpt;
  SchedulerContext context;
  // FIFO would pick 0; SRPT must pick 3 regardless of insertion order.
  ExpectPickUnderOrders(srpt, jobs, kInsertionOrders, context, 3);
  // Finishing most of job 0's wave shrinks its key below everyone's: the
  // priority is *remaining* work, not total size.
  jobs[0].maps_finished = 3;  // remaining 1 x 100 = 100 < job 3's 160
  ExpectPickUnderOrders(srpt, jobs, kInsertionOrders, context, 0);
}

TEST(SchedulerTieBreakTest, DeadlineRanksEdfAndEscalatesOverdue) {
  std::vector<SimJob> jobs(4);
  std::vector<trace::JobRecord> records(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 0.0, 4, 40);
    jobs[i].job_id = records[i].job_id;
    jobs[i].submit_time = 0.0;
    jobs[i].maps_total = 4;
    jobs[i].map_task_duration = 10.0;
  }
  jobs[0].deadline = -1.0;  // no deadline: ranks last
  jobs[1].deadline = 500.0;
  jobs[2].deadline = 300.0;
  jobs[3].deadline = 400.0;
  jobs[2].map_task_duration = 50.0;  // most remaining work
  DeadlineScheduler edf;
  SchedulerContext context;
  // Nothing overdue yet: earliest deadline (job 2) wins.
  context.now = 100.0;
  ExpectPickUnderOrders(edf, jobs, kInsertionOrders, context, 2);
  // Jobs 2 and 3 are now overdue. Escalation ranks the overdue pool by
  // least remaining work - job 3 (40s) beats job 2 (200s) even though
  // job 2's deadline is earlier - and outranks the on-time job 1.
  context.now = 450.0;
  ExpectPickUnderOrders(edf, jobs, kInsertionOrders, context, 3);
  // With every deadline passed, the no-deadline job still ranks last.
  context.now = 600.0;
  ExpectPickUnderOrders(edf, jobs, {{0, 1}, {1, 0}}, context, 1);
}

// --- Shared fixtures for the digest and SLA tests ---------------------------

trace::Trace Fb2010Style(size_t jobs, uint64_t seed) {
  // The paper's FB-2010 shape in miniature: >90% small jobs (a few short
  // tasks), a heavy tail of large multi-wave jobs, bursty submits.
  trace::Trace t;
  Pcg32 rng(seed, /*stream=*/0xfb10);
  double submit = 0.0;
  for (size_t i = 0; i < jobs; ++i) {
    submit += rng.NextExponential(1.0 / 20.0);  // ~20s mean interarrival
    if (rng.NextBernoulli(0.92)) {
      int64_t maps = rng.NextInt(1, 4);
      t.AddJob(SimpleJob(i + 1, submit, maps,
                         static_cast<double>(maps) * rng.NextDouble(5, 60),
                         rng.NextBernoulli(0.3) ? 1 : 0, 15.0, 1e6));
    } else {
      int64_t maps = rng.NextInt(50, 400);
      int64_t reduces = rng.NextInt(5, 40);
      t.AddJob(SimpleJob(
          i + 1, submit, maps,
          static_cast<double>(maps) * rng.NextDouble(30, 300), reduces,
          static_cast<double>(reduces) * rng.NextDouble(20, 120), 5e12));
    }
  }
  return t;
}

void ExpectBitIdentical(const ReplayResult& a, const ReplayResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].job_id, b.outcomes[i].job_id)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].latency, b.outcomes[i].latency)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].ideal_latency, b.outcomes[i].ideal_latency)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].retries, b.outcomes[i].retries)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].is_small, b.outcomes[i].is_small)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].deadline, b.outcomes[i].deadline)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].missed_sla, b.outcomes[i].missed_sla)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].tenant, b.outcomes[i].tenant)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].preempted_tasks, b.outcomes[i].preempted_tasks)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].admission_delay, b.outcomes[i].admission_delay)
        << what << " outcome " << i;
  }
  EXPECT_EQ(a.scheduler, b.scheduler) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.hourly_occupancy, b.hourly_occupancy) << what;
  EXPECT_EQ(a.unfinished_jobs, b.unfinished_jobs) << what;
  EXPECT_EQ(a.failures.task_failures, b.failures.task_failures) << what;
  EXPECT_EQ(a.failures.node_losses, b.failures.node_losses) << what;
  EXPECT_EQ(a.failures.tasks_lost_to_nodes, b.failures.tasks_lost_to_nodes)
      << what;
  EXPECT_EQ(a.failures.retries, b.failures.retries) << what;
  EXPECT_EQ(a.failures.failed_jobs, b.failures.failed_jobs) << what;
  EXPECT_EQ(a.failures.failed_task_seconds, b.failures.failed_task_seconds)
      << what;
  EXPECT_EQ(a.sla.small_jobs_with_deadline, b.sla.small_jobs_with_deadline)
      << what;
  EXPECT_EQ(a.sla.large_jobs_with_deadline, b.sla.large_jobs_with_deadline)
      << what;
  EXPECT_EQ(a.sla.small_misses, b.sla.small_misses) << what;
  EXPECT_EQ(a.sla.large_misses, b.sla.large_misses) << what;
  EXPECT_EQ(a.sla.preemption_rounds, b.sla.preemption_rounds) << what;
  EXPECT_EQ(a.sla.preempted_tasks, b.sla.preempted_tasks) << what;
  EXPECT_EQ(a.sla.admission_parked_jobs, b.sla.admission_parked_jobs) << what;
  EXPECT_EQ(a.sla.total_admission_delay, b.sla.total_admission_delay) << what;
  ASSERT_EQ(a.sla.tenants.size(), b.sla.tenants.size()) << what;
  for (size_t i = 0; i < a.sla.tenants.size(); ++i) {
    EXPECT_EQ(a.sla.tenants[i].tenant, b.sla.tenants[i].tenant) << what;
    EXPECT_EQ(a.sla.tenants[i].jobs, b.sla.tenants[i].jobs) << what;
    EXPECT_EQ(a.sla.tenants[i].parked_jobs, b.sla.tenants[i].parked_jobs)
        << what;
    EXPECT_EQ(a.sla.tenants[i].total_admission_delay,
              b.sla.tenants[i].total_admission_delay)
        << what;
    EXPECT_EQ(a.sla.tenants[i].max_admission_delay,
              b.sla.tenants[i].max_admission_delay)
        << what;
  }
}

// --- Golden replay digests --------------------------------------------------

// ReplayResultDigest of policy x scenario: the only oracle for the replay
// engine's results. The first six scenarios (plain through admission)
// were produced by the engine that scanned flat runnable lists in every
// PickJob. The last five (one-slot through seeded-19) replay the
// scenarios of the scheduler, SLA and template tests below, and were
// produced by the submit-indexed engine. Both sets were cross-checked
// once against the retired priority-queue engine, which agreed bit for
// bit on every scenario it supported (all but preemption). Every later
// engine must reproduce the table unchanged: a differing entry is a
// change in replay results, never a table to regenerate casually.

// `jobs` single-task jobs of `seconds` each, all submitted at time 0.
trace::Trace SingleTaskBurst(int jobs, double seconds) {
  trace::Trace t;
  for (int i = 0; i < jobs; ++i) {
    t.AddJob(SimpleJob(i + 1, 0.0, 1, seconds));
  }
  return t;
}

// One tenant capped at one admitted job: the burst runs strictly serially.
ReplayOptions SerialAdmission() {
  ReplayOptions options = SmallCluster("fifo");
  options.sla.tenants = 1;
  options.sla.tenant_max_running = 1;
  return options;
}

// Two tenants capped at one job each, with children behind parents.
ReplayOptions AdmissionWithDependencies() {
  ReplayOptions options = SmallCluster("fair");
  options.sla.tenants = 2;
  options.sla.tenant_max_running = 1;
  options.dependencies[4] = {1};
  options.dependencies[6] = {3};
  return options;
}

// Stragglers and task failures under a non-default replay seed.
ReplayOptions SeededFaults(uint64_t seed) {
  ReplayOptions options;
  options.cluster.nodes = 12;
  options.seed = seed;
  options.straggler_probability = 0.05;
  options.failures.task_failure_probability = 0.03;
  return options;
}

struct GoldenScenario {
  const char* name;
  trace::Trace trace;
  ReplayOptions options;
};

std::vector<GoldenScenario> GoldenScenarios() {
  std::vector<GoldenScenario> scenarios;
  {
    ReplayOptions options;
    options.cluster.nodes = 30;
    scenarios.push_back({"plain", Fb2010Style(600, 2010), options});
  }
  {
    ReplayOptions options;
    options.cluster.nodes = 20;
    options.straggler_probability = 0.1;
    options.straggler_factor = 6.0;
    options.speculative_execution = true;
    options.failures.task_failure_probability = 0.08;
    options.failures.node_loss_per_hour = 2.0;
    options.failures.max_attempts = 3;
    options.failures.retry_backoff_seconds = 20.0;
    scenarios.push_back({"faults", Fb2010Style(400, 417), options});
  }
  {
    ReplayOptions options;
    options.cluster.nodes = 10;
    for (uint64_t id = 6; id <= 200; id += 5) {
      options.dependencies[id] = {id - 5};
    }
    scenarios.push_back({"dependencies", Fb2010Style(200, 88), options});
  }
  {
    ReplayOptions options;
    options.cluster.nodes = 1;
    options.cluster.map_slots_per_node = 3;
    options.cluster.reduce_slots_per_node = 2;
    scenarios.push_back({"saturated", Fb2010Style(300, 7), options});
  }
  {
    ReplayOptions options;
    options.cluster.nodes = 4;
    options.sla.preemption_budget = 300;
    scenarios.push_back({"preemption", Fb2010Style(400, 31), options});
  }
  {
    ReplayOptions options;
    options.cluster.nodes = 10;
    options.sla.tenants = 4;
    options.sla.tenant_max_running = 2;
    options.failures.task_failure_probability = 0.05;
    options.failures.node_loss_per_hour = 1.0;
    scenarios.push_back({"admission", Fb2010Style(300, 53), options});
  }
  scenarios.push_back({"one-slot", OneSlotTrace(), OneSlotCluster()});
  scenarios.push_back(
      {"admission-serial", SingleTaskBurst(4, 10.0), SerialAdmission()});
  scenarios.push_back({"admission-deps", SingleTaskBurst(6, 30.0),
                       AdmissionWithDependencies()});
  scenarios.push_back({"seeded-7", Fb2010Style(300, 61), SeededFaults(7)});
  scenarios.push_back({"seeded-19", Fb2010Style(300, 61), SeededFaults(19)});
  return scenarios;
}

struct GoldenDigest {
  const char* scenario;
  const char* policy;
  uint64_t digest;
};

constexpr GoldenDigest kGoldenDigests[] = {
    {"plain", "fifo", 0x5a139dc714bde86f},
    {"plain", "fair", 0xdd9707bde969eb14},
    {"plain", "two-tier", 0xf7d6ee7653ec7369},
    {"plain", "srpt", 0xa220004efa926e9b},
    {"plain", "deadline", 0x302f6887e6a74d81},
    {"faults", "fifo", 0x73bfe9164a9a66ed},
    {"faults", "fair", 0xcc9149f182e1df74},
    {"faults", "two-tier", 0x9103c5de739164c0},
    {"faults", "srpt", 0x10ecdedf2a0c5c28},
    {"faults", "deadline", 0x4fcf6a2c0d5b8e58},
    {"dependencies", "fifo", 0xbde23ae48a991105},
    {"dependencies", "fair", 0x9dac9eb55f870dfe},
    {"dependencies", "two-tier", 0x7feb40077eb734c2},
    {"dependencies", "srpt", 0x0fd4e7161cbeb184},
    {"dependencies", "deadline", 0x60387304dc308e38},
    {"saturated", "fifo", 0xa66ebdf9e3cc622b},
    {"saturated", "fair", 0xa87163de244aca32},
    {"saturated", "two-tier", 0x4b9195f748c30528},
    {"saturated", "srpt", 0x52cd237c9fd1477f},
    {"saturated", "deadline", 0x16f041406fff3e16},
    {"preemption", "fifo", 0x19b0178ae2bbe6f0},
    {"preemption", "fair", 0x2983bf998f06055d},
    {"preemption", "two-tier", 0xa2343ff5038b587c},
    {"preemption", "srpt", 0x6dd6464db4ec5ed8},
    {"preemption", "deadline", 0xe1c70a405cf76df2},
    {"admission", "fifo", 0x783f0056afea81ac},
    {"admission", "fair", 0x8e3795d04cd745cb},
    {"admission", "two-tier", 0xe7ef83c2104b2cda},
    {"admission", "srpt", 0x1c017fab580446c2},
    {"admission", "deadline", 0x65ffea4621101ff1},
    {"one-slot", "fifo", 0xbc13a7f420eb6850},
    {"one-slot", "fair", 0x0ff370a4f0e68444},
    {"one-slot", "two-tier", 0xae7f21feb41d1f0d},
    {"one-slot", "srpt", 0xaacc63c3c54d7e88},
    {"one-slot", "deadline", 0x7f044429ccb4c9fb},
    {"admission-serial", "fifo", 0xbc2de20dd1fb1183},
    {"admission-serial", "fair", 0xb24f60af3a49b5d0},
    {"admission-serial", "two-tier", 0x17edee05c4bb5629},
    {"admission-serial", "srpt", 0x94fe9d5b7fd2bb8e},
    {"admission-serial", "deadline", 0xbfabaf94afc3edff},
    {"admission-deps", "fifo", 0xccaeaa20514926f1},
    {"admission-deps", "fair", 0x49e4ca542979bc0d},
    {"admission-deps", "two-tier", 0x0ea8d87074ceb701},
    {"admission-deps", "srpt", 0x71b1d1f6223b84bf},
    {"admission-deps", "deadline", 0x02d8fc9f72c96186},
    {"seeded-7", "fifo", 0xcc32149ec77005ef},
    {"seeded-7", "fair", 0x1f286e1c04f409df},
    {"seeded-7", "two-tier", 0x0355e9a982621e5c},
    {"seeded-7", "srpt", 0xe777bea9d8532adb},
    {"seeded-7", "deadline", 0x07b2652d2f3c0314},
    {"seeded-19", "fifo", 0x3383054f72db045a},
    {"seeded-19", "fair", 0xf328ab191659d392},
    {"seeded-19", "two-tier", 0x9ebd65f98beca692},
    {"seeded-19", "srpt", 0x5f7ce720164789e7},
    {"seeded-19", "deadline", 0xda83432295ae9508},
};

TEST(GoldenReplayTest, DigestsMatchTable) {
  const char* const policies[] = {"fifo", "fair", "two-tier", "srpt",
                                  "deadline"};
  size_t checked = 0;
  for (const GoldenScenario& scenario : GoldenScenarios()) {
    auto tpl = ReplayTemplate::Build(scenario.trace, scenario.options);
    ASSERT_TRUE(tpl.ok()) << scenario.name;
    for (const char* policy : policies) {
      ReplayOptions options = scenario.options;
      options.scheduler = policy;
      auto result = tpl->Replay(options);
      ASSERT_TRUE(result.ok()) << scenario.name << "/" << policy;
      const uint64_t digest = ReplayResultDigest(*result);
      const GoldenDigest* want = nullptr;
      for (const GoldenDigest& entry : kGoldenDigests) {
        if (std::string(entry.scenario) == scenario.name &&
            std::string(entry.policy) == policy) {
          want = &entry;
        }
      }
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016llx",
                    static_cast<unsigned long long>(digest));
      if (want == nullptr) {
        ADD_FAILURE() << "no golden entry: {\"" << scenario.name << "\", \""
                      << policy << "\", " << actual << "},";
        continue;
      }
      EXPECT_EQ(want->digest, digest)
          << scenario.name << "/" << policy << " digest is " << actual;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenDigests));
}

TEST(GoldenReplayTest, DigestCoversResultsButNotEngineCounters) {
  auto result = ReplayTrace(Fb2010Style(100, 5), ReplayOptions());
  ASSERT_TRUE(result.ok());
  const uint64_t digest = ReplayResultDigest(*result);
  ReplayResult counted = *result;
  counted.engine.events += 1;
  counted.engine.grants += 1;
  counted.engine.coalesced_events += 1;
  counted.engine.peak_runnable_maps += 1;
  EXPECT_EQ(ReplayResultDigest(counted), digest);
  ReplayResult moved = *result;
  moved.outcomes.back().latency =
      std::nextafter(moved.outcomes.back().latency, 1e300);
  EXPECT_NE(ReplayResultDigest(moved), digest);
  ReplayResult missed = *result;
  ++missed.sla.small_misses;
  EXPECT_NE(ReplayResultDigest(missed), digest);
  ReplayResult scheduler = *result;
  scheduler.scheduler = "Fair";
  EXPECT_NE(ReplayResultDigest(scheduler), digest);
}

// Arrivals that share their instant with queued task completions while
// node losses run: submits come in pairs every 10 s and every task lasts a
// multiple of 10 s, so most arrivals pop between waves ending at the same
// time. The digests were taken on the engine that queued every arrival
// before the first pop; streaming them must keep each arrival's place.
trace::Trace TiedArrivals() {
  trace::Trace t;
  for (int i = 0; i < 160; ++i) {
    const int64_t maps = 1 + i % 4;
    t.AddJob(SimpleJob(static_cast<uint64_t>(i + 1), 10.0 * (i / 2), maps,
                       10.0 * static_cast<double>(maps) * (1 + i % 3),
                       i % 5 == 0 ? 2 : 0, 40.0, i % 7 == 0 ? 5e12 : 1e6));
  }
  return t;
}

TEST(GoldenReplayTest, ArrivalsTiedWithCompletionsUnderNodeLoss) {
  const std::pair<const char*, uint64_t> want[] = {
      {"fifo", 0x2ad182c7b46415cf},
      {"fair", 0x19512a22413145ca},
      {"two-tier", 0x4acd5218abff7b44},
      {"srpt", 0xe34bfff3e3a9b026},
      {"deadline", 0xf33465a2452b0c3a},
  };
  ReplayOptions options = SmallCluster();
  options.cluster.nodes = 3;
  options.failures.node_loss_per_hour = 40.0;
  options.failures.max_attempts = 6;
  for (const auto& [policy, digest] : want) {
    options.scheduler = policy;
    auto result = ReplayTrace(TiedArrivals(), options);
    ASSERT_TRUE(result.ok()) << policy;
    EXPECT_GT(result->failures.node_losses, 0) << policy;
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  static_cast<unsigned long long>(ReplayResultDigest(*result)));
    EXPECT_EQ(ReplayResultDigest(*result), digest)
        << policy << ": " << actual;
  }
}

// --- Replay horizon ---------------------------------------------------------

// Fb2010Style(46, 46) with job `index` edited by `edit`.
trace::Trace WithOneJobEdited(size_t index,
                              void (*edit)(trace::JobRecord& job)) {
  std::vector<trace::JobRecord> jobs = Fb2010Style(46, 46).jobs();
  edit(jobs[index]);
  trace::Trace t;
  for (const trace::JobRecord& job : jobs) t.AddJob(job);
  return t;
}

// A run whose events pass the horizon fails before the occupancy meter
// sizes its hourly buckets for them: with the rest of the trace near time
// zero, the arena backing the run stays small.
void ExpectRejectedPastHorizon(const trace::Trace& t, const char* what,
                               bool near_zero = true) {
  auto tpl = ReplayTemplate::Build(t);
  ASSERT_TRUE(tpl.ok()) << what;
  Arena arena;
  auto result = tpl->Replay(ReplayOptions(), &arena);
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(result.status().message().find("100 years"), std::string::npos)
      << result.status().ToString();
  if (near_zero) {
    EXPECT_LE(arena.reserved_bytes(), size_t{1} << 20) << what;
  }
}

TEST(ReplayHorizonTest, FarFutureEventsFailFastWithoutAllocating) {
  ExpectRejectedPastHorizon(
      WithOneJobEdited(20, [](trace::JobRecord& job) {
        job.submit_time = 1e308;
      }),
      "submit 1e308");
  ExpectRejectedPastHorizon(
      WithOneJobEdited(20, [](trace::JobRecord& job) {
        job.submit_time = 1e15;
      }),
      "submit 1e15");
  ExpectRejectedPastHorizon(
      WithOneJobEdited(20, [](trace::JobRecord& job) {
        job.map_task_seconds = 1e300;
      }),
      "map_task_seconds 1e300");
  trace::Trace lone;
  lone.AddJob(SimpleJob(1, 1e308, 1, 10.0));
  ExpectRejectedPastHorizon(lone, "a one-job trace at 1e308");
}

TEST(ReplayHorizonTest, HorizonBoundsEventsNotJustSubmits) {
  const double horizon = trace::kMaxTraceHours * 3600.0;
  trace::Trace inside;
  inside.AddJob(SimpleJob(1, horizon - 3600.0, 1, 1800.0));
  auto result = ReplayTrace(inside, SmallCluster());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcomes.size(), 1u);
  // Submitted inside the horizon, but its task ends past it.
  trace::Trace ends_past;
  ends_past.AddJob(SimpleJob(1, horizon - 3600.0, 1, 7200.0));
  ExpectRejectedPastHorizon(ends_past, "a task ending past the horizon",
                            /*near_zero=*/false);
}

TEST(ReplayHorizonTest, NodeLossesAreNotDrawnPastTheHorizon) {
  // At 1e-9 losses per hour the first loss lands ~1e9 hours out: it is
  // not queued, so the run loses no node instead of sizing hourly buckets
  // out to it.
  ReplayOptions options;
  options.cluster.nodes = 10;
  options.failures.node_loss_per_hour = 1e-9;
  const trace::Trace t = Fb2010Style(46, 46);
  Arena arena;
  auto tpl = ReplayTemplate::Build(t, options);
  ASSERT_TRUE(tpl.ok());
  auto result = tpl->Replay(options, &arena);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failures.node_losses, 0);
  EXPECT_EQ(result->outcomes.size(), 46u);
  EXPECT_LE(arena.reserved_bytes(), size_t{1} << 20);
}

// --- Runnable index ---------------------------------------------------------

// Earliest member of one tier by a linear SubmitsBefore scan: the
// reference each RunnableSet heap head must equal.
int ScanHead(const std::vector<SimJob>& jobs,
             const std::vector<uint8_t>& member, bool small) {
  int best = -1;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!member[i] || jobs[i].is_small != small) continue;
    if (best < 0 || SubmitsBefore(jobs, i, static_cast<size_t>(best))) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int Head(Span<size_t> tier) {
  return tier.empty() ? -1 : static_cast<int>(tier[0]);
}

// Every element of a tier is a member of that tier and never submits
// before its heap parent. A broken sift can leave the head right for a
// long time while the order below it is already wrong.
void ExpectHeapOrdered(const std::vector<SimJob>& jobs,
                       const std::vector<uint8_t>& member, Span<size_t> tier,
                       bool small, int step) {
  for (size_t i = 0; i < tier.size(); ++i) {
    ASSERT_TRUE(member[tier[i]]) << "step " << step;
    ASSERT_EQ(jobs[tier[i]].is_small, small) << "step " << step;
    if (i > 0) {
      ASSERT_FALSE(SubmitsBefore(jobs, tier[i], tier[(i - 1) / 2]))
          << "step " << step << " position " << i;
    }
  }
}

TEST(RunnableSetTest, HeadsMatchLinearScanUnderRandomChurn) {
  // Jobs deliberately out of submit order with heavy submit-time ties
  // (five distinct values over 200 jobs), so the index order - not just
  // the submit time - decides most comparisons.
  Pcg32 rng(2012, /*stream=*/0x5e7);
  std::vector<SimJob> jobs(200);
  size_t small_jobs = 0;
  for (SimJob& job : jobs) {
    job.submit_time = 100.0 * static_cast<double>(rng.NextInt(0, 4));
    job.is_small = rng.NextBernoulli(0.7);
    if (job.is_small) ++small_jobs;
  }
  Arena arena;
  RunnableSet set(&arena);
  set.Reset(jobs, small_jobs);
  std::vector<uint8_t> member(jobs.size(), 0);
  size_t members = 0;
  size_t peak = 0;
  FifoScheduler fifo;
  SchedulerContext context;
  for (int step = 0; step < 20000; ++step) {
    // Bias toward inserts early and erases late, so the set both fills
    // up and drains; erased jobs are re-inserted as the walk continues.
    const size_t job = rng.NextBounded(jobs.size());
    const bool want = rng.NextBernoulli(step < 10000 ? 0.6 : 0.35);
    set.Set(job, want);
    if (want != (member[job] != 0)) members += want ? 1 : size_t(0) - 1;
    member[job] = want ? 1 : 0;
    peak = std::max(peak, members);

    ASSERT_EQ(set.Contains(job), want) << "step " << step;
    ASSERT_EQ(set.size(), members) << "step " << step;
    const RunnableView view = set.view();
    ASSERT_EQ(Head(view.small), ScanHead(jobs, member, true))
        << "step " << step;
    ASSERT_EQ(Head(view.large), ScanHead(jobs, member, false))
        << "step " << step;
    ExpectHeapOrdered(jobs, member, view.small, true, step);
    ExpectHeapOrdered(jobs, member, view.large, false, step);
    if (HasFatalFailure()) return;
    // FIFO over the index equals FIFO over a flat list of the same set.
    std::vector<size_t> flat;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (member[i]) flat.push_back(i);
    }
    ASSERT_EQ(fifo.PickJob(jobs, view, TaskKind::kMap, 8, context),
              fifo.PickJob(jobs, MakeRunnableView(jobs, flat),
                           TaskKind::kMap, 8, context))
        << "step " << step;
  }
  EXPECT_EQ(set.peak_size(), peak);
  EXPECT_GT(peak, jobs.size() / 2);
  // Reset empties the set and re-carves storage for the next run.
  set.Reset(jobs, small_jobs);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.peak_size(), 0u);
  EXPECT_TRUE(set.view().empty());
}

TEST(RunnableSetTest, SaturatedFifoReportsDeepRunnableBacklog) {
  // Same trace and policy on a cluster ten times smaller: the backlog
  // FIFO has to rank grows by an order of magnitude, and the engine
  // counters show it.
  trace::Trace t = Fb2010Style(600, 2010);
  ReplayOptions options;
  options.cluster.nodes = 30;
  auto unsaturated = ReplayTrace(t, options);
  options.cluster.nodes = 3;
  auto saturated = ReplayTrace(t, options);
  ASSERT_TRUE(unsaturated.ok());
  ASSERT_TRUE(saturated.ok());
  EXPECT_GE(saturated->engine.peak_runnable_maps,
            10 * unsaturated->engine.peak_runnable_maps);
  EXPECT_GT(saturated->engine.peak_runnable_maps, 100);
  for (const ReplayResult* result : {&*unsaturated, &*saturated}) {
    EXPECT_GE(result->engine.peak_runnable_maps, 1);
    EXPECT_GE(result->engine.peak_runnable_reduces, 1);
    // Every job arrives (one event each) and launches at least one batch.
    EXPECT_GE(result->engine.events, 600);
    EXPECT_GE(result->engine.grants, 600);
    EXPECT_LT(result->engine.coalesced_events, result->engine.events);
  }
  // Freed slots granted one at a time to the same FIFO head at the same
  // instant: runs of equal grants that the queue keeps as one entry.
  EXPECT_GT(saturated->engine.coalesced_events, 0);
}

// --- SLA tier: deadlines, preemption, admission control --------------------

TEST(SlaTest, RejectsBadSlaOptions) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 10));
  ReplayOptions options;
  options.sla.small_multiplier = 0.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.large_multiplier = -3.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.preemption_budget = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.tenants = -2;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.tenants = 2;
  options.sla.tenant_max_running = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

TEST(SlaTest, DeadlinesPopulatedAndMissesCounted) {
  // Every job gets deadline = submit + ideal x multiplier; under FIFO the
  // head-of-line elephant makes the small jobs blow theirs. The small
  // multiplier is widened to ~2 elephant waves so EDF - which cannot
  // preempt the first wave on a 2-slot cluster - can still meet it.
  ReplayOptions options = SmallCluster("fifo");
  options.sla.small_multiplier = 100.0;
  auto fifo = ReplayTrace(HeadOfLineTrace(), options);
  options.scheduler = "deadline";
  auto edf = ReplayTrace(HeadOfLineTrace(), options);
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(edf.ok());
  EXPECT_EQ(fifo->sla.small_jobs_with_deadline, 20);
  EXPECT_EQ(fifo->sla.large_jobs_with_deadline, 1);
  for (const auto& outcome : fifo->outcomes) {
    EXPECT_GE(outcome.deadline, 0.0);
    EXPECT_EQ(outcome.missed_sla,
              outcome.submit_time + outcome.latency > outcome.deadline);
  }
  EXPECT_GT(fifo->sla.small_misses, 0);
  EXPECT_GT(fifo->sla.MissFraction(true), 0.5);
  // Deadline scheduling rescues the small-job mass.
  EXPECT_LT(edf->sla.small_misses, fifo->sla.small_misses);
}

TEST(SlaTest, KilledJobsCountAsSlaMisses) {
  // A job that exhausts its attempts never finishes - that is the worst
  // possible SLA outcome and must be a miss, not a hole in the count.
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 1.0;
  options.failures.max_attempts = 2;
  options.failures.retry_backoff_seconds = 0.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures.failed_jobs, 40);
  EXPECT_EQ(result->sla.small_jobs_with_deadline, 40);
  EXPECT_EQ(result->sla.small_misses, 40);
  EXPECT_DOUBLE_EQ(result->sla.MissFraction(true), 1.0);
}

TEST(SlaTest, PreemptionRescuesInteractiveJobsUnderElephant) {
  trace::Trace t = HeadOfLineTrace();
  ReplayOptions plain = SmallCluster("fifo");
  ReplayOptions preempt = plain;
  preempt.sla.preemption_budget = 200;
  auto a = ReplayTrace(t, plain);
  auto b = ReplayTrace(t, preempt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Revoked elephant tasks hand their slots to the small jobs. (Rescue is
  // wave-quantized: revocation pauses while phantom completion events of
  // already-revoked tasks are in flight, so small jobs wait at most ~one
  // elephant task duration instead of the full 20-wave backlog.)
  EXPECT_GT(b->sla.preempted_tasks, 0);
  EXPECT_GT(b->sla.preemption_rounds, 0);
  EXPECT_LT(b->LatencyQuantile(true, 0.9), a->LatencyQuantile(true, 0.9) / 4);
  // ...and the revoked work is re-enqueued: the elephant still completes.
  EXPECT_EQ(b->CountJobs(false), 1u);
  EXPECT_EQ(b->unfinished_jobs, 0u);
  // Per-job preemption counts roll up to the aggregate.
  int64_t preempted = 0;
  for (const auto& outcome : b->outcomes) preempted += outcome.preempted_tasks;
  EXPECT_EQ(preempted, b->sla.preempted_tasks);
  // Preemptive replays are deterministic: run twice, compare everything.
  auto c = ReplayTrace(t, preempt);
  ASSERT_TRUE(c.ok());
  ExpectBitIdentical(*b, *c, "preemption determinism");
}

TEST(SlaTest, PreemptionBudgetIsBounded) {
  trace::Trace t = HeadOfLineTrace();
  ReplayOptions options = SmallCluster("fifo");
  options.sla.preemption_budget = 3;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->sla.preempted_tasks, 3);
  EXPECT_EQ(result->unfinished_jobs, 0u);
}

TEST(SlaTest, PreemptionComposesWithFailuresDeterministically) {
  // The acceptance bar for the preemptive tier: with stragglers, task
  // failures, and node losses all active, two runs are bit-identical.
  trace::Trace t = Fb2010Style(300, 99);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "srpt";
  options.sla.preemption_budget = 500;
  options.straggler_probability = 0.1;
  options.speculative_execution = true;
  options.failures.task_failure_probability = 0.05;
  options.failures.node_loss_per_hour = 2.0;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->sla.preempted_tasks, 0);
  ExpectBitIdentical(*a, *b, "preemption+failures determinism");
}

TEST(SlaTest, AdmissionSerializesTenantJobs) {
  // Four 10s single-task jobs, one tenant, cap 1: without admission two
  // run concurrently on the 2-slot cluster; with it they run strictly
  // serially (latencies 10/20/30/40) and the wait is accounted. The
  // "admission-serial" golden digest pins the rest of the result.
  auto result = ReplayTrace(SingleTaskBurst(4, 10.0), SerialAdmission());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 4u);
  std::vector<double> latencies;
  for (const auto& outcome : result->outcomes) {
    latencies.push_back(outcome.latency);
  }
  std::sort(latencies.begin(), latencies.end());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(latencies[i], 10.0 * static_cast<double>(i + 1), 0.01);
  }
  EXPECT_EQ(result->sla.admission_parked_jobs, 3);
  EXPECT_GT(result->sla.total_admission_delay, 0.0);
  ASSERT_EQ(result->sla.tenants.size(), 1u);
  EXPECT_EQ(result->sla.tenants[0].jobs, 4);
  EXPECT_EQ(result->sla.tenants[0].parked_jobs, 3);
  EXPECT_GT(result->sla.tenants[0].max_admission_delay, 0.0);
  double outcome_delay = 0.0;
  for (const auto& outcome : result->outcomes) {
    outcome_delay += outcome.admission_delay;
  }
  EXPECT_DOUBLE_EQ(outcome_delay, result->sla.total_admission_delay);
}

TEST(SlaTest, AdmissionComposesWithDependenciesWithoutDeadlock) {
  // Tokens only ever go to arrived, parent-free jobs, so a child behind a
  // parked parent cannot wedge the tenant queue. The "admission-deps"
  // golden digest pins the exact schedule.
  auto result =
      ReplayTrace(SingleTaskBurst(6, 30.0), AdmissionWithDependencies());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 6u);
  EXPECT_EQ(result->unfinished_jobs, 0u);
  // Tenant assignment is job_id % tenants.
  for (const auto& outcome : result->outcomes) {
    EXPECT_EQ(outcome.tenant, static_cast<int>(outcome.job_id % 2));
  }
}

TEST(SlaTest, PreemptionAndAdmissionComposeEndToEnd) {
  // The full SLA tier at once on a saturated mix: deadline scheduling,
  // elephant preemption, and per-tenant admission, twice, bit-identical.
  trace::Trace t = Fb2010Style(250, 7);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "deadline";
  options.sla.preemption_budget = 300;
  options.sla.tenants = 3;
  options.sla.tenant_max_running = 4;
  options.failures.task_failure_probability = 0.03;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sla.tenants.size(), 3u);
  ExpectBitIdentical(*a, *b, "full SLA tier determinism");
}

// --- ReplayTemplate: the shared build phase behind sweeps ------------------

// One template replayed under several policies and seeds equals a fresh
// ReplayTrace per configuration; the "seeded-7" and "seeded-19" golden
// digests pin the results themselves.
TEST(ReplayTemplateTest, BuildOnceReplayManyMatchesDirectReplay) {
  trace::Trace t = Fb2010Style(300, 61);
  auto tpl = ReplayTemplate::Build(t);
  ASSERT_TRUE(tpl.ok());
  EXPECT_EQ(tpl->job_count(), 300u);
  for (const char* policy : {"fifo", "fair", "two-tier"}) {
    for (uint64_t seed : {7u, 19u}) {
      ReplayOptions options = SeededFaults(seed);
      options.scheduler = policy;
      auto shared = tpl->Replay(options);
      auto direct = ReplayTrace(t, options);
      ASSERT_TRUE(shared.ok());
      ASSERT_TRUE(direct.ok());
      ExpectBitIdentical(*shared, *direct, policy);
    }
  }
}

TEST(ReplayTemplateTest, ArenaResetReuseStaysBitIdentical) {
  trace::Trace t = Fb2010Style(250, 33);
  ReplayOptions base;
  base.cluster.nodes = 8;
  // Chain some jobs so the CSR dependency path runs arena-backed too.
  for (uint64_t id = 10; id <= 250; id += 10) base.dependencies[id] = {id - 5};
  auto tpl = ReplayTemplate::Build(t, base);
  ASSERT_TRUE(tpl.ok());
  Arena arena;
  for (int epoch = 0; epoch < 4; ++epoch) {
    ReplayOptions options = base;
    options.scheduler = (epoch % 2 == 0) ? "fair" : "two-tier";
    options.seed = 100 + static_cast<uint64_t>(epoch);
    auto warm = tpl->Replay(options, &arena);
    arena.Reset();
    auto fresh = tpl->Replay(options);  // no arena: plain heap
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(fresh.ok());
    ExpectBitIdentical(*warm, *fresh, "arena epoch");
  }
  // Warm lanes re-carve blocks instead of growing the reservation.
  const size_t reserved = arena.reserved_bytes();
  ReplayOptions options = base;
  auto again = tpl->Replay(options, &arena);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(ReplayTemplateTest, RejectsOptionsTheTemplateWasNotBuiltFor) {
  trace::Trace t = Fb2010Style(50, 5);
  auto tpl = ReplayTemplate::Build(t);
  ASSERT_TRUE(tpl.ok());

  ReplayOptions sweepable;  // per-run axes may differ freely
  sweepable.scheduler = "fair";
  sweepable.cluster.nodes = 3;
  sweepable.seed = 999;
  sweepable.straggler_probability = 0.5;
  sweepable.failures.task_failure_probability = 0.2;
  EXPECT_TRUE(tpl->Compatible(sweepable));
  EXPECT_TRUE(tpl->Replay(sweepable).ok());

  ReplayOptions different_cap;
  different_cap.max_tasks_per_job = 17;
  EXPECT_FALSE(tpl->Compatible(different_cap));
  EXPECT_FALSE(tpl->Replay(different_cap).ok());

  ReplayOptions different_threshold;
  different_threshold.small_job_bytes = 1.0;
  EXPECT_FALSE(tpl->Compatible(different_threshold));
  EXPECT_FALSE(tpl->Replay(different_threshold).ok());

  ReplayOptions different_deps;
  different_deps.dependencies[2] = {1};
  EXPECT_FALSE(tpl->Compatible(different_deps));
  EXPECT_FALSE(tpl->Replay(different_deps).ok());
}

}  // namespace
}  // namespace swim::sim
