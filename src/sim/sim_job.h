#ifndef SWIM_SIM_SIM_JOB_H_
#define SWIM_SIM_SIM_JOB_H_

#include <cstdint>

namespace swim::sim {

enum class TaskKind { kMap, kReduce };

/// Runtime state of one job inside the simulator. Tasks of a kind are
/// homogeneous (duration = task_seconds / task_count), matching the
/// information available in per-job traces.
struct SimJob {
  uint64_t job_id = 0;

  int64_t maps_total = 0;
  int64_t maps_launched = 0;
  int64_t maps_finished = 0;
  int64_t reduces_total = 0;
  int64_t reduces_launched = 0;
  int64_t reduces_finished = 0;

  double map_task_duration = 0.0;
  double reduce_task_duration = 0.0;

  double submit_time = 0.0;
  double first_launch_time = -1.0;
  double finish_time = -1.0;

  /// Small jobs (< 10 GB total data in the paper's dichotomy) are the
  /// interactive tier.
  bool is_small = false;

  // --- SLA tier (see ReplayOptions::sla) --------------------------------

  /// Absolute completion deadline: submit_time + IdealLatency() x the
  /// per-class SLA multiplier. Populated by ReplayTemplate::Build; < 0
  /// means "no deadline". Consumed by DeadlineScheduler and by the
  /// SLA-miss accounting in JobOutcome.
  double deadline = -1.0;
  /// Owning tenant for admission control: job_id % ReplayOptions::sla
  /// .tenants (0 when admission is disabled). Populated alongside
  /// `deadline`.
  int tenant_id = 0;
  /// Tasks revoked from this job by elephant preemption (reported in
  /// JobOutcome::preempted_tasks).
  int64_t preempted_tasks = 0;
  /// Revoked tasks whose in-flight completion/failure events have not
  /// fired yet: the event's count covering them is swallowed instead of
  /// finishing or re-failing tasks that were already returned to the
  /// unlaunched pool (mirrors kill_pending_* for node losses).
  int64_t preempt_pending_maps = 0;
  int64_t preempt_pending_reduces = 0;
  /// Admission control: set while the job is parked waiting for a tenant
  /// token; parked jobs are never runnable.
  bool admission_parked = false;
  /// When the current (or last) admission park began; < 0 = never parked.
  double admission_park_time = -1.0;
  /// Total seconds spent parked by admission control.
  double admission_wait = 0.0;

  /// Workflow support: number of prerequisite jobs (earlier stages of the
  /// same Hive query / Oozie workflow) that have not finished yet. A job
  /// with pending parents is held even after its submit time.
  int64_t unfinished_parents = 0;

  // --- Failure-injection state (see ReplayOptions::failures) -----------
  //
  // Tasks of a kind are homogeneous waves, so attempts are tracked per
  // (job, kind), not per individual task: a failed batch pushes its tasks
  // back into the unlaunched pool (launched is decremented) and raises the
  // kind's attempt level; the next granted batch of that kind runs at that
  // level. When a batch fails at attempt max_attempts, the job is killed
  // (Hadoop fails the job once any task exhausts its attempts).

  /// Attempt level the next launched batch of each kind runs at (1 =
  /// fresh; >1 = re-execution, counted in FailureStats::retries).
  int map_attempt = 1;
  int reduce_attempt = 1;
  /// Re-executions launched for this job (reported in JobOutcome).
  int64_t retries = 0;
  /// Tasks from failed batches awaiting re-launch: launches are counted as
  /// retries only up to this debt, so tasks that merely share an elevated
  /// attempt level with a failed sibling are not miscounted as retries.
  int64_t map_relaunch_debt = 0;
  int64_t reduce_relaunch_debt = 0;
  /// Failed tasks wait out a linear backoff; the job receives no grants
  /// of either kind before this time.
  double retry_ready_time = 0.0;
  /// Node-loss kills are applied when the in-flight wave completes
  /// (heartbeat-timeout semantics): this many completions of each kind are
  /// converted to failures instead.
  int64_t kill_pending_maps = 0;
  int64_t kill_pending_reduces = 0;
  /// Exhausted its attempt budget; removed from the active set, never
  /// finishes, counted in FailureStats::failed_jobs.
  bool failed = false;

  int64_t maps_running() const { return maps_launched - maps_finished; }
  int64_t reduces_running() const {
    return reduces_launched - reduces_finished;
  }
  int64_t running_tasks() const { return maps_running() + reduces_running(); }

  bool maps_done() const { return maps_finished == maps_total; }
  bool HasRunnable(TaskKind kind) const {
    if (unfinished_parents > 0) return false;
    if (kind == TaskKind::kMap) return maps_launched < maps_total;
    // Reduces wait for the map stage (no slow-start overlap modeled).
    return maps_done() && reduces_launched < reduces_total;
  }
  bool Finished() const {
    return maps_done() && reduces_finished == reduces_total;
  }

  /// Lower bound on latency with unlimited slots: one wave of maps
  /// followed by one wave of reduces.
  double IdealLatency() const {
    return map_task_duration + reduce_task_duration;
  }

  /// Task-seconds not yet finished (running tasks count as unfinished:
  /// they still hold slots, and under preemption may never finish). The
  /// SRPT priority key, and the elephant-size key for preemption victim
  /// selection.
  double RemainingWork() const {
    return static_cast<double>(maps_total - maps_finished) *
               map_task_duration +
           static_cast<double>(reduces_total - reduces_finished) *
               reduce_task_duration;
  }
};

}  // namespace swim::sim

#endif  // SWIM_SIM_SIM_JOB_H_
