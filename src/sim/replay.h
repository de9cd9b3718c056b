#ifndef SWIM_SIM_REPLAY_H_
#define SWIM_SIM_REPLAY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/statusor.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"
#include "trace/trace.h"

namespace swim::sim {


/// Hadoop 1.x-style slot cluster (the paper's trace era): each node offers
/// fixed map and reduce slots; the TaskTracker heartbeat / JobTracker
/// assignment loop is abstracted into instantaneous slot grants.
struct ClusterConfig {
  int nodes = 100;
  int map_slots_per_node = 8;
  int reduce_slots_per_node = 4;

  int total_map_slots() const { return nodes * map_slots_per_node; }
  int total_reduce_slots() const { return nodes * reduce_slots_per_node; }
};

/// Seeded failure model (section 6.2: the paper's replay findings hinge on
/// how fault tolerance interacts with small single-wave jobs). Disabled by
/// default; when both knobs are zero the engine never consults the failure
/// RNG streams, so replay output is bit-identical to a build without the
/// model. Deterministic in (trace, options) like everything else here.
struct FailureOptions {
  /// Independent probability that a launched task attempt dies partway
  /// through. Failed attempts waste failure_point of their duration in
  /// occupied slot-seconds, then re-execute after a backoff.
  double task_failure_probability = 0.0;
  /// Fraction of the attempt duration a failing task runs before dying.
  double failure_point = 0.5;
  /// Poisson rate of whole-node losses per simulated hour, cluster-wide.
  /// A loss kills up to one node's worth of running map and reduce slots;
  /// the kills are charged when the affected wave would have completed
  /// (lost TaskTrackers are detected by heartbeat timeout in Hadoop, not
  /// instantly), wasting the full attempt duration.
  double node_loss_per_hour = 0.0;
  /// Attempt budget per (job, task kind), initial attempt included —
  /// Hadoop's mapred.map.max.attempts. A batch failing at its final
  /// attempt kills the whole job.
  int max_attempts = 4;
  /// Failed tasks become eligible for re-launch only after
  /// retry_backoff_seconds * failed-attempt-number (linear backoff).
  double retry_backoff_seconds = 10.0;

  bool enabled() const {
    return task_failure_probability > 0.0 || node_loss_per_hour > 0.0;
  }
};

/// SLA tier (ROADMAP open item 3): deadlines, elephant preemption, and
/// per-tenant admission control. All knobs default off/neutral; with the
/// defaults the engine's event flow is unchanged.
struct SlaOptions {
  /// Per-class deadline multipliers: job deadline = submit time +
  /// IdealLatency() x (small ? small_multiplier : large_multiplier).
  /// Deadlines feed DeadlineScheduler and the SLA-miss accounting in
  /// SlaStats; both multipliers are template-captured (they shape the job
  /// skeletons), so sweeping them rebuilds per cell.
  double small_multiplier = 4.0;
  double large_multiplier = 12.0;
  /// Elephant preemption: when an interactive (small) job is runnable and
  /// no slot of the kind is free, the engine may revoke up to this many
  /// running tasks per run from the largest (most remaining work) large
  /// job and hand the slots to the interactive job. Revoked work re-joins
  /// the unlaunched pool via the relaunch-debt machinery (counted in
  /// FailureStats::retries at re-launch). 0 disables preemption.
  int64_t preemption_budget = 0;
  /// Per-tenant admission control: tenants > 0 assigns each job to tenant
  /// job_id % tenants and caps concurrently admitted (running or queued-
  /// for-slots) jobs per tenant at tenant_max_running. Over-cap jobs park
  /// in per-tenant FIFO queues and are admitted as earlier jobs of the
  /// tenant finish. 0 disables admission control.
  int tenants = 0;
  int tenant_max_running = 8;

  bool preemption_enabled() const { return preemption_budget > 0; }
  bool admission_enabled() const { return tenants > 0; }
};

struct ReplayOptions {
  ClusterConfig cluster;
  /// "fifo", "fair", "two-tier", "srpt", or "deadline" (see
  /// ValidSchedulerPolicies(); unknown names are a hard error).
  std::string scheduler = "fifo";
  /// Tasks per job are capped by merging (durations scale up) so that
  /// replaying month-long production traces stays tractable; occupancy in
  /// slot-seconds is preserved exactly.
  int64_t max_tasks_per_job = 2000;
  /// Straggler injection: each task independently runs `straggler_factor`x
  /// longer with this probability (section 6.2 discusses why stragglers
  /// interact badly with single-wave small jobs).
  double straggler_probability = 0.0;
  double straggler_factor = 5.0;
  /// Hadoop-style speculative execution: when a job has at least two
  /// tasks of a kind, a straggling task is detected by comparison with
  /// its siblings and a backup launched once they finish, capping the
  /// straggler's effective duration at ~2x normal. Jobs with a single
  /// task of a kind get NO protection - the paper's section 6.2 point
  /// that "if the only task of a job runs slowly, it becomes impossible
  /// to tell whether the task is inherently slow, or abnormally slow".
  bool speculative_execution = false;
  uint64_t seed = 19;
  /// Jobs with < this much total data count as "small" (interactive tier).
  double small_job_bytes = 10e9;
  /// Workflow dependencies: job_id -> prerequisite job_ids (earlier stages
  /// of the same Hive query or Oozie workflow). A job becomes runnable
  /// only after its submit time AND all parents finished. Unknown job ids
  /// are rejected; dependency cycles stall their jobs (reported via
  /// ReplayResult::unfinished_jobs rather than hanging).
  FlatHashMap<uint64_t, std::vector<uint64_t>> dependencies;
  /// Task/node failure injection; see FailureOptions.
  FailureOptions failures;
  /// SLA tier: deadlines, preemption, admission control; see SlaOptions.
  SlaOptions sla;
};

/// Outcome of one replayed job.
struct JobOutcome {
  uint64_t job_id = 0;
  double submit_time = 0.0;
  /// Queueing + execution time in the simulated cluster.
  double latency = 0.0;
  /// One-wave lower bound (unlimited slots).
  double ideal_latency = 0.0;
  bool is_small = false;
  /// Task re-executions this job needed (0 without failure injection).
  int64_t retries = 0;
  /// Absolute SLA deadline carried by the job (< 0 = none).
  double deadline = -1.0;
  /// Finished after its deadline (always false for deadline < 0).
  bool missed_sla = false;
  /// Owning tenant under admission control (0 when disabled).
  int tenant = 0;
  /// Running tasks revoked from this job by elephant preemption.
  int64_t preempted_tasks = 0;
  /// Seconds the job spent parked by per-tenant admission control.
  double admission_delay = 0.0;

  /// Stretch = latency / ideal latency. Convention for degenerate
  /// zero-work jobs (ideal_latency == 0): any positive latency is pure
  /// queueing delay with no lower bound to normalize by, so the stretch is
  /// reported as +infinity rather than the old masking 1.0; a zero-work
  /// job with zero latency is 1.0 (it was never delayed). Engine-produced
  /// outcomes always carry ideal_latency >= the 1e-3 s duration floor, so
  /// MeanSlowdown over replay output stays finite.
  double Slowdown() const {
    if (ideal_latency > 0.0) return latency / ideal_latency;
    return latency > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
};

/// Accounting block for injected failures; all-zero when disabled.
struct FailureStats {
  /// Task attempts that died from per-task probability failures.
  int64_t task_failures = 0;
  /// Whole-node loss events applied.
  int64_t node_losses = 0;
  /// Task attempts killed by node losses.
  int64_t tasks_lost_to_nodes = 0;
  /// Re-executed task attempts launched (attempt number > 1).
  int64_t retries = 0;
  /// Jobs killed after a task batch exhausted max_attempts.
  int64_t failed_jobs = 0;
  /// Slot-seconds burned by attempts that did not complete.
  double failed_task_seconds = 0.0;
};

/// Per-tenant admission-control accounting (SlaStats::tenants; empty when
/// admission control is disabled).
struct TenantStats {
  int tenant = 0;
  /// Jobs of this tenant that finished (or were killed) after admission.
  int64_t jobs = 0;
  /// Jobs that had to park at least once waiting for a tenant token.
  int64_t parked_jobs = 0;
  /// Total seconds of admission queueing across the tenant's jobs.
  double total_admission_delay = 0.0;
  /// Largest single-job admission delay.
  double max_admission_delay = 0.0;
};

/// SLA-tier accounting block on ReplayResult; all-zero / empty when the
/// SLA knobs are at their defaults except deadlines, which are always
/// assigned (multipliers default on) and scored against finish times.
struct SlaStats {
  /// Finished jobs that carried a deadline, per class.
  int64_t small_jobs_with_deadline = 0;
  int64_t large_jobs_with_deadline = 0;
  /// Finished jobs whose finish_time exceeded their deadline, per class.
  /// Jobs killed by failure injection count as misses (they carried a
  /// deadline and will never meet it).
  int64_t small_misses = 0;
  int64_t large_misses = 0;
  /// Elephant preemption: revocation rounds the engine ran, and running
  /// tasks revoked in total (also distributed per job via
  /// JobOutcome::preempted_tasks).
  int64_t preemption_rounds = 0;
  int64_t preempted_tasks = 0;
  /// Admission control: jobs that parked at least once, and total parked
  /// seconds across all jobs.
  int64_t admission_parked_jobs = 0;
  double total_admission_delay = 0.0;
  /// Per-tenant breakdown, indexed 0..tenants-1 (empty when disabled).
  std::vector<TenantStats> tenants;

  double MissFraction(bool small_jobs) const {
    int64_t total = small_jobs ? small_jobs_with_deadline
                               : large_jobs_with_deadline;
    int64_t missed = small_jobs ? small_misses : large_misses;
    return total > 0 ? static_cast<double>(missed) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// What a run cost the engine, as opposed to what it computed: the
/// counters that explain replay time. ReplayResultDigest and every
/// bit-identity comparison leave them out.
struct EngineCounters {
  /// Events popped off the event queue.
  int64_t events = 0;
  /// Of those, pushes the queue absorbed into a run of equal events
  /// rather than storing them as entries of their own.
  int64_t coalesced_events = 0;
  /// Slot grants: task batches the grant loop launched, one PickJob
  /// decision each (preemption launches are counted in SlaStats).
  int64_t grants = 0;
  /// Largest number of jobs runnable at once, per task kind. Saturation
  /// shows up here first: the backlog a PickJob has to rank.
  int64_t peak_runnable_maps = 0;
  int64_t peak_runnable_reduces = 0;
};

struct ReplayResult {
  std::string scheduler;
  std::vector<JobOutcome> outcomes;
  /// Jobs that never finished: unsatisfiable dependencies, or killed by
  /// failure injection (the latter also counted in failures.failed_jobs).
  size_t unfinished_jobs = 0;
  /// Failure-injection accounting (all zero when injection is disabled).
  FailureStats failures;
  /// SLA-tier accounting: per-class deadline misses, preemption and
  /// admission counters; see SlaStats.
  SlaStats sla;
  /// Average occupied slots (map + reduce) per hour of simulated time -
  /// the paper's Figure 7 fourth column ("utilization in average active
  /// slots").
  std::vector<double> hourly_occupancy;
  double makespan = 0.0;
  /// Busy slot-seconds / (total slots x makespan), in [0, 1]. Where
  /// attempts of killed jobs hold slots so long after the last finish
  /// that the ratio would exceed 1, the window runs to the last event
  /// instead.
  double utilization = 0.0;
  /// Engine work counters; not part of the results (see EngineCounters).
  EngineCounters engine;

  /// Sort-once latency view over small or large jobs: filter + sort the
  /// outcomes once, then read any number of quantiles/moments in O(1).
  /// Callers reporting several percentiles (p50/p90/p99 rows) must use
  /// this instead of repeated LatencyQuantile calls.
  stats::SortedStats LatencyStats(bool small_jobs) const;

  /// One-off latency quantile over small or large jobs (p in [0,1]).
  /// Filters and sorts per call; use LatencyStats for more than one read.
  double LatencyQuantile(bool small_jobs, double p) const;
  double MeanSlowdown(bool small_jobs) const;
  size_t CountJobs(bool small_jobs) const;
};

/// The engine's postcondition on a finished run over `jobs` jobs: every
/// job is either an outcome or unfinished, and utilization lies in
/// [0, 1]. The engine returns its InternalError instead of a result that
/// breaks it.
Status CheckReplayResult(const ReplayResult& result, size_t jobs);

/// Canonical digest of a replay's results: the scheduler name, every
/// JobOutcome field, unfinished_jobs, FailureStats, SlaStats (tenants
/// included), hourly occupancy, makespan and utilization, serialized in
/// that fixed order as raw bit patterns and hashed with XXH64
/// (common/checksum.h). Equal digests mean bit-identical results; golden
/// digest tables in the tests pin the engine's output with it.
uint64_t ReplayResultDigest(const ReplayResult& result);

/// The per-trace build product of a replay, computed once and shared
/// immutably across every configuration of a sweep: SimJob skeletons
/// (task counts, durations, small/large classification), the workflow
/// dependency graph in CSR form, and the resolved job index. Splitting
/// this off ReplayTrace turns an N-configuration sweep's trace -> jobs
/// conversion from N passes into one.
///
/// Build() captures the option fields the skeletons depend on
/// (max_tasks_per_job, small_job_bytes, dependencies, and the SLA
/// deadline shape: sla.small_multiplier / sla.large_multiplier /
/// sla.tenants); Replay() rejects options that disagree with them — the
/// sweep axes (scheduler, cluster size, seed, stragglers, failure model,
/// sla.preemption_budget, sla.tenant_max_running) are all per-run. The template
/// copies what it needs from `trace`. Thread-safe for concurrent Replay()
/// calls: a run never writes template state.
class ReplayTemplate {
 public:
  static StatusOr<ReplayTemplate> Build(const trace::Trace& trace,
                                        const ReplayOptions& base = {});

  /// One configuration run against the shared skeletons, bit-identical
  /// to ReplayTrace(trace, options) for compatible options. `arena`,
  /// when non-null, backs every per-run container (job table, runnable
  /// sets, event-queue buckets, ...); between runs the owning lane
  /// calls arena->Reset() and the next run re-carves the same blocks, so
  /// a warm lane replays a configuration with ~zero heap mallocs. The
  /// returned ReplayResult owns ordinary heap memory and outlives any
  /// arena reset.
  StatusOr<ReplayResult> Replay(const ReplayOptions& options,
                                Arena* arena = nullptr) const;

  /// True iff `options` agrees with the captured template-relevant
  /// fields (max_tasks_per_job, small_job_bytes, dependencies, SLA
  /// deadline multipliers and tenant count).
  bool Compatible(const ReplayOptions& options) const;

  size_t job_count() const { return jobs_.size(); }
  /// Jobs in the interactive tier (SimJob::is_small).
  size_t small_job_count() const { return small_job_count_; }

  // --- Engine-facing accessors (read-only shared state) ---------------
  const std::vector<SimJob>& jobs() const { return jobs_; }
  /// Dependency children in CSR form; both empty when no dependencies.
  /// Children of job i are child_index()[child_offsets()[i] ..
  /// child_offsets()[i+1]).
  const std::vector<uint32_t>& child_offsets() const {
    return child_offsets_;
  }
  const std::vector<uint32_t>& child_index() const { return child_index_; }
  double first_submit() const { return first_submit_; }

 private:
  ReplayTemplate() = default;

  std::vector<SimJob> jobs_;  // initial-state skeletons
  std::vector<uint32_t> child_offsets_;
  std::vector<uint32_t> child_index_;
  double first_submit_ = 0.0;
  size_t small_job_count_ = 0;

  // Captured template-relevant options (Compatible()).
  int64_t max_tasks_per_job_ = 0;
  double small_job_bytes_ = 0.0;
  double sla_small_multiplier_ = 0.0;
  double sla_large_multiplier_ = 0.0;
  int sla_tenants_ = 0;
  FlatHashMap<uint64_t, std::vector<uint64_t>> dependencies_;
};

/// Replays a trace through the discrete-event cluster simulator: jobs
/// arrive at their submit times, tasks occupy slots under the chosen
/// scheduling policy, reduces start when the map stage completes.
/// Deterministic in (trace, options). Equivalent to
/// ReplayTemplate::Build + Replay; sweeps replaying one trace under many
/// configurations should build the template once instead.
StatusOr<ReplayResult> ReplayTrace(const trace::Trace& trace,
                                   const ReplayOptions& options = {});

}  // namespace swim::sim

#endif  // SWIM_SIM_REPLAY_H_
