// High-throughput discrete-event replay core: the repository's only
// replay engine. The engine that shipped first pushed every task batch
// through a std::priority_queue, rebuilt the runnable set by scanning all
// active jobs on each grant round, and advanced occupancy buckets hour by
// hour. This rebuild kept those simulation semantics bit-identical - the
// golden ReplayResultDigest table in tests/sim_test.cc pins them - while
// removing every per-event O(active) cost:
//
//   - Events flow through a calendar queue (sim/event_queue.h): amortized
//     O(1) enqueue/dequeue with a d-ary-heap fallback for sparse tails,
//     FIFO tie-break on the same seq counter the heap used.
//   - The runnable set is maintained incrementally: jobs enter/leave a
//     per-kind RunnableSet (sim/runnable_set.h) at their state
//     transitions (arrival, batch launch, batch completion/failure,
//     parent finish, retry backoff, job kill), so a grant round touches
//     only genuinely runnable jobs. Each set is two submit-ordered heaps,
//     one per tier, so FIFO and two-tier picks read a heap head in O(1)
//     however deep the backlog; ties are pinned to (submit time, job
//     index), so heap layout cannot leak into policy decisions.
//   - Jobs waiting out a retry backoff are parked in a small time-ordered
//     heap and re-enter the runnable sets exactly when the grant round
//     reaches retry_ready_time, replacing the per-grant timestamp check.
//   - The active-job list (node-loss victim order) is an intrusive
//     doubly-linked list in arrival order: O(1) unlink instead of the
//     O(active) std::find + erase per job completion.
//   - OccupancyMeter jumps idle gaps in one step instead of looping
//     bucket-by-bucket across hours where nothing was running.
//
// For sweep throughput the run is split in two phases: a
// per-trace ReplayTemplate build (SimJob skeletons, dependency CSR, job
// index — computed once, shared immutably across all configurations) and
// a cheap per-config run whose every container is backed by a per-lane
// Arena, so a warm sweep lane replays a configuration with ~zero heap
// mallocs. ReplayTrace == Build + one Replay, so single runs and sweeps
// agree bit for bit.
#include "sim/replay.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "common/checksum.h"
#include "common/random.h"
#include "sim/event_queue.h"
#include "sim/runnable_set.h"
#include "stats/descriptive.h"

namespace swim::sim {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// The trace horizon (trace::kMaxTraceHours) from time zero, where the
/// hourly occupancy axis starts: a job event past it fails the run before
/// the meter sizes its buckets. Submit times are non-negative, so this also
/// bounds the span after the first submit. Node losses are not drawn past
/// it.
constexpr double kHorizonSeconds = trace::kMaxTraceHours * 3600.0;

/// Tasks of a kind within a job are homogeneous, so a wave of them is
/// simulated as one event carrying a count - this keeps event volume
/// proportional to scheduling decisions, not task counts, and is what lets
/// month-long million-job traces replay in seconds.
///
/// Members are ordered widest first so an event takes 56 bytes and a
/// queue entry (an event plus its run length) one 64-byte cache line.
struct Event {
  enum class Kind : uint8_t {
    kArrival,
    kTasksDone,
    kTasksFailed,  // attempts dying mid-flight (probability failures)
    kNodeLoss,     // whole-node loss; self-reschedules while work remains
    kWake,         // retry backoff expired; re-enter the grant loop
  };

  double time = 0.0;
  uint64_t seq = 0;  // FIFO tie-break for simultaneous events
  size_t job_index = 0;
  int64_t count = 0;
  /// Slot-seconds one task of the batch occupies until this event fires -
  /// the waste charged per task if the attempt dies instead of completing.
  double unit_seconds = 0.0;
  /// Attempt level the batch was launched at (failure bookkeeping).
  int attempt = 1;
  TaskKind task_kind = TaskKind::kMap;
  Kind kind = Kind::kArrival;

  /// Every member but seq holds the same bits: the event queue may then
  /// keep this event and its predecessor as one run (sim/event_queue.h).
  bool SamePayload(const Event& other) const {
    return std::bit_cast<uint64_t>(time) ==
               std::bit_cast<uint64_t>(other.time) &&
           kind == other.kind && job_index == other.job_index &&
           task_kind == other.task_kind && count == other.count &&
           attempt == other.attempt &&
           std::bit_cast<uint64_t>(unit_seconds) ==
               std::bit_cast<uint64_t>(other.unit_seconds);
  }
};
static_assert(sizeof(Event) <= 56);

/// Integrates busy-slot counts into hourly buckets. An advance across H
/// hours costs O(1) for the boundary slices plus one write per interior
/// hour when slots are busy; an idle advance (busy_slots == 0) only
/// extends the bucket vector. The hour arithmetic equals a per-hour
/// slice loop exactly - same first-hour rounding, same exact (h+1)*3600
/// boundaries - so bucket contents are bit-identical to stepping.
class OccupancyMeter {
 public:
  void Advance(double now, int64_t busy_slots, ArenaVector<double>& buckets) {
    if (now <= last_time_) {
      last_time_ = std::max(last_time_, now);
      return;
    }
    const size_t first_hour = static_cast<size_t>(last_time_ / 3600.0);
    // Last hour a per-hour loop would touch: the smallest h >= first_hour
    // with (h+1)*3600 >= now. Seed from the rounded division and settle
    // with exact-product comparisons (<= 2 steps).
    size_t last_hour = std::max(first_hour,
                                static_cast<size_t>(now / 3600.0));
    while (last_hour > first_hour &&
           static_cast<double>(last_hour) * 3600.0 >= now) {
      --last_hour;
    }
    while (static_cast<double>(last_hour + 1) * 3600.0 < now) ++last_hour;
    if (buckets.size() <= last_hour) buckets.resize(last_hour + 1, 0.0);
    const double busy = static_cast<double>(busy_slots);
    if (first_hour == last_hour) {
      buckets[first_hour] += busy * (now - last_time_);
    } else {
      buckets[first_hour] +=
          busy * (static_cast<double>(first_hour + 1) * 3600.0 - last_time_);
      if (busy_slots != 0) {
        for (size_t h = first_hour + 1; h < last_hour; ++h) {
          buckets[h] += busy * 3600.0;
        }
      }
      buckets[last_hour] +=
          busy * (now - static_cast<double>(last_hour) * 3600.0);
    }
    busy_slot_seconds_ += busy * (now - last_time_);
    last_time_ = now;
  }

  double busy_slot_seconds() const { return busy_slot_seconds_; }
  double last_time() const { return last_time_; }

 private:
  double last_time_ = 0.0;
  double busy_slot_seconds_ = 0.0;
};

/// Busy slot-seconds over the capacity of the makespan window. Attempts
/// of killed jobs can hold slots past the last finish; only where that
/// pushes the ratio past 1 does the window stretch to the last event,
/// which no busy interval outlasts (clamped against rounding), so every
/// other run keeps the makespan definition bit for bit.
double Utilization(const OccupancyMeter& meter, int64_t total_slots,
                   double makespan, double first_submit) {
  const double slots = static_cast<double>(total_slots);
  const double window = std::max(makespan, 1.0);
  const double utilization = meter.busy_slot_seconds() / (slots * window);
  if (utilization <= 1.0) return utilization;
  const double busy_window =
      std::max(window, meter.last_time() - first_submit);
  return std::min(1.0, meter.busy_slot_seconds() / (slots * busy_window));
}

Status ValidateFailureOptions(const FailureOptions& failures) {
  if (failures.task_failure_probability < 0.0 ||
      failures.task_failure_probability > 1.0 ||
      !std::isfinite(failures.task_failure_probability)) {
    return InvalidArgumentError("task_failure_probability must be in [0, 1]");
  }
  if (!(failures.failure_point > 0.0) || failures.failure_point > 1.0) {
    return InvalidArgumentError("failure_point must be in (0, 1]");
  }
  if (failures.node_loss_per_hour < 0.0 ||
      !std::isfinite(failures.node_loss_per_hour)) {
    return InvalidArgumentError("node_loss_per_hour must be >= 0");
  }
  if (failures.max_attempts < 1) {
    return InvalidArgumentError("max_attempts must be >= 1");
  }
  if (failures.retry_backoff_seconds < 0.0 ||
      !std::isfinite(failures.retry_backoff_seconds)) {
    return InvalidArgumentError("retry_backoff_seconds must be >= 0");
  }
  return Status::Ok();
}

Status ValidateStragglerOptions(const ReplayOptions& options) {
  // A probability above 1 makes llround(surviving * p) stragglers exceed
  // the surviving tasks, so more tasks complete than were launched.
  if (!(options.straggler_probability >= 0.0 &&
        options.straggler_probability <= 1.0)) {
    return InvalidArgumentError("straggler_probability must be in [0, 1]");
  }
  if (!(options.straggler_factor >= 1.0) ||
      !std::isfinite(options.straggler_factor)) {
    return InvalidArgumentError("straggler_factor must be finite and >= 1");
  }
  return Status::Ok();
}

Status ValidateSlaOptions(const SlaOptions& sla) {
  if (!(sla.small_multiplier > 0.0) ||
      !std::isfinite(sla.small_multiplier) ||
      !(sla.large_multiplier > 0.0) ||
      !std::isfinite(sla.large_multiplier)) {
    return InvalidArgumentError("SLA multipliers must be finite and > 0");
  }
  if (sla.preemption_budget < 0) {
    return InvalidArgumentError("preemption_budget must be >= 0");
  }
  if (sla.tenants < 0) {
    return InvalidArgumentError("tenants must be >= 0");
  }
  if (sla.tenants > 0 && sla.tenant_max_running < 1) {
    return InvalidArgumentError(
        "tenant_max_running must be >= 1 when admission control is enabled");
  }
  return Status::Ok();
}

/// One replay run against a shared ReplayTemplate. Determinism contract:
/// everything below is a pure function of (template, options); events pop
/// in (time, seq) order, the RNG streams are consumed at fixed call
/// sites, and scheduler decisions are independent of runnable heap layout
/// (pinned tie-breaks). The golden digests in tests/sim_test.cc pin the
/// results bit for bit.
///
/// Every per-run container draws from `arena` (heap fallback when null):
/// the job table copy, both runnable sets and their position indexes,
/// the parked-job heap, the active-list links, the occupancy buckets,
/// and the calendar queue's heap and bucket ring. The ReplayResult
/// handed back owns plain heap memory so it survives the lane's
/// arena->Reset() between configurations.
class ReplayEngine {
 public:
  ReplayEngine(const ReplayTemplate& tpl, const ReplayOptions& options,
               Arena* arena)
      : tpl_(tpl),
        options_(options),
        failures_(options.failures),
        rng_(options.seed, /*stream=*/0x51e9),
        // Dedicated streams for the failure model: enabling/disabling
        // failure injection must not perturb the straggler draws (and
        // with the model disabled these are never consulted, keeping
        // output bit-identical to pre-failure-model replays).
        failure_rng_(options.seed, /*stream=*/0xfa11),
        loss_rng_(options.seed, /*stream=*/0x10e5),
        jobs_(ArenaAllocator<SimJob>(arena)),
        queue_(ArenaAllocator<Event>(arena)),
        occupancy_slot_seconds_(ArenaAllocator<double>(arena)),
        arrived_(ArenaAllocator<uint8_t>(arena)),
        parked_(ArenaAllocator<uint8_t>(arena)),
        runnable_maps_(arena),
        runnable_reduces_(arena),
        in_active_(ArenaAllocator<uint8_t>(arena)),
        active_prev_(ArenaAllocator<size_t>(arena)),
        active_next_(ArenaAllocator<size_t>(arena)),
        parked_heap_(ArenaAllocator<std::pair<double, size_t>>(arena)),
        admitted_(ArenaAllocator<uint8_t>(arena)),
        adm_next_(ArenaAllocator<size_t>(arena)),
        adm_head_(ArenaAllocator<size_t>(arena)),
        adm_tail_(ArenaAllocator<size_t>(arena)),
        tenant_running_(ArenaAllocator<int64_t>(arena)) {}

  StatusOr<ReplayResult> Run();

 private:
  // --- Incremental runnable tracking ----------------------------------
  //
  // A job is runnable for a kind iff it has arrived, is not failed, is
  // not parked on a retry backoff, has no unfinished parents, and has
  // unlaunched tasks of that kind (reduces additionally wait for the map
  // stage). Membership only changes at the transition points below, each
  // of which calls Refresh - an idempotent resync of both sets, O(1) when
  // nothing changed and O(log runnable) when a job enters or leaves.

  void Refresh(size_t i) {
    const SimJob& job = jobs_[i];
    const bool base = arrived_[i] != 0 && !job.failed && parked_[i] == 0 &&
                      job.unfinished_parents == 0 && !job.admission_parked;
    runnable_maps_.Set(i, base && job.maps_launched < job.maps_total);
    runnable_reduces_.Set(i, base && job.maps_done() &&
                                 job.reduces_launched < job.reduces_total);
  }

  // --- Active list (arrival order, for node-loss victim selection) ----

  void LinkActive(size_t i) {
    in_active_[i] = 1;
    active_prev_[i] = active_tail_;
    active_next_[i] = kNone;
    if (active_tail_ != kNone) {
      active_next_[active_tail_] = i;
    } else {
      active_head_ = i;
    }
    active_tail_ = i;
  }

  void UnlinkActive(size_t i) {
    if (!in_active_[i]) return;
    in_active_[i] = 0;
    const size_t prev = active_prev_[i];
    const size_t next = active_next_[i];
    if (prev != kNone) {
      active_next_[prev] = next;
    } else {
      active_head_ = next;
    }
    if (next != kNone) {
      active_prev_[next] = prev;
    } else {
      active_tail_ = prev;
    }
  }

  // --- Engine steps ---------------------------------------------------

  void PushEvent(double time, Event::Kind kind, size_t job_index,
                 TaskKind task_kind, int64_t count, int attempt,
                 double unit_seconds) {
    Enqueue(Event{.time = time,
                  .seq = seq_++,
                  .job_index = job_index,
                  .count = count,
                  .unit_seconds = unit_seconds,
                  .attempt = attempt,
                  .task_kind = task_kind,
                  .kind = kind});
  }

  /// Job i's arrival, under seq i: the seq it held when every arrival was
  /// queued before the first pop.
  void PushArrival(size_t i) {
    Enqueue(Event{.time = jobs_[i].submit_time,
                  .seq = i,
                  .job_index = i,
                  .kind = Event::Kind::kArrival});
  }

  /// Node losses form a Poisson process cut off at the replay horizon: a
  /// loss drawn past it is not queued, so a very low rate loses no node
  /// rather than failing the run.
  void PushNodeLoss(double time) {
    if (time <= kHorizonSeconds) {
      PushEvent(time, Event::Kind::kNodeLoss, 0, TaskKind::kMap, 0, 1, 0.0);
    }
  }

  void Enqueue(const Event& event) {
    if (!(event.time <= kHorizonSeconds) && !past_horizon_) {
      past_horizon_ = event;
    }
    queue_.Push(event);
  }

  void LaunchBatch(size_t job_index, TaskKind kind, double now,
                   int64_t count);
  void HandleAttemptFailure(size_t job_index, TaskKind kind, int attempt,
                            int64_t count, double now);
  bool GrantKind(TaskKind kind, double now);
  void ScheduleLoop(double now);

  // --- SLA tier (admission control, elephant preemption, accounting) ---

  /// Admission control: called when a job becomes eligible (arrived with
  /// no unfinished parents). Grants a tenant token if one is free, else
  /// parks the job on its tenant's FIFO queue; parked jobs are never
  /// runnable. No-op when admission is disabled or the token is held.
  void TryAdmit(size_t i, double now);
  /// Returns the tenant token at job finish/kill and admits the tenant's
  /// longest-parked job, if any.
  void ReleaseAdmission(size_t i, double now);
  /// One elephant-preemption round for a kind: with no free slot and an
  /// interactive job runnable, revoke running tasks from the largest
  /// large job and launch the interactive job into the freed slots
  /// directly (bypassing PickJob, so a FIFO-ranked elephant cannot
  /// re-absorb them). Returns true if tasks were revoked.
  bool PreemptKind(TaskKind kind, double now);
  /// Deadline-miss + per-tenant accounting at job end (finish or kill).
  void AccountSla(const SimJob& job, bool killed);

  const ReplayTemplate& tpl_;
  const ReplayOptions& options_;
  const FailureOptions& failures_;
  Pcg32 rng_;
  Pcg32 failure_rng_;
  Pcg32 loss_rng_;

  ArenaVector<SimJob> jobs_;
  std::unique_ptr<Scheduler> scheduler_;
  CalendarEventQueue<Event, ArenaAllocator<Event>> queue_;
  uint64_t seq_ = 0;
  /// The first job event queued past the replay horizon; the run stops
  /// there.
  std::optional<Event> past_horizon_;

  int64_t total_map_slots_ = 0;
  int64_t total_reduce_slots_ = 0;
  int64_t free_map_slots_ = 0;
  int64_t free_reduce_slots_ = 0;
  SchedulerContext context_;
  OccupancyMeter meter_;
  ArenaVector<double> occupancy_slot_seconds_;
  ReplayResult result_;

  ArenaVector<uint8_t> arrived_;
  ArenaVector<uint8_t> parked_;
  RunnableSet runnable_maps_;
  RunnableSet runnable_reduces_;

  ArenaVector<uint8_t> in_active_;
  ArenaVector<size_t> active_prev_;
  ArenaVector<size_t> active_next_;
  size_t active_head_ = kNone;
  size_t active_tail_ = kNone;

  /// (retry_ready_time, job index) min-heap of parked jobs. Entries are
  /// lazy: retry_ready_time may have been raised after an entry was
  /// pushed, in which case the stale entry re-parks itself on pop.
  ArenaVector<std::pair<double, size_t>> parked_heap_;

  // --- Admission control state (sized only when enabled) ---------------
  /// Whether job i currently holds its tenant's token. A job acquires the
  /// token once (at eligibility or when popped from the park queue) and
  /// returns it once (finish or kill), so parking happens at most once
  /// per job.
  ArenaVector<uint8_t> admitted_;
  /// Intrusive per-tenant FIFO park queues: adm_next_[i] links jobs, one
  /// (head, tail) pair per tenant.
  ArenaVector<size_t> adm_next_;
  ArenaVector<size_t> adm_head_;
  ArenaVector<size_t> adm_tail_;
  /// Tokens held per tenant (admitted jobs not yet finished/killed).
  ArenaVector<int64_t> tenant_running_;

  /// Elephant preemption: revocations remaining this run.
  int64_t preempt_budget_left_ = 0;
};

// Launches `count` tasks of one kind as at most three events: a failing
// portion (dies at failure_point of the duration), plus regular and
// straggling completions of the survivors.
void ReplayEngine::LaunchBatch(size_t job_index, TaskKind kind, double now,
                               int64_t count) {
  SimJob& job = jobs_[job_index];
  double duration;
  int attempt;
  if (kind == TaskKind::kMap) {
    job.maps_launched += count;
    free_map_slots_ -= count;
    if (!job.is_small) context_.large_running_maps += count;
    duration = job.map_task_duration;
    attempt = job.map_attempt;
  } else {
    job.reduces_launched += count;
    free_reduce_slots_ -= count;
    if (!job.is_small) context_.large_running_reduces += count;
    duration = job.reduce_task_duration;
    attempt = job.reduce_attempt;
  }
  int64_t& debt = kind == TaskKind::kMap ? job.map_relaunch_debt
                                         : job.reduce_relaunch_debt;
  int64_t relaunched = std::min(debt, count);
  if (relaunched > 0) {
    debt -= relaunched;
    job.retries += relaunched;
    result_.failures.retries += relaunched;
  }
  if (job.first_launch_time < 0.0) job.first_launch_time = now;

  // Failure split first: an attempt that dies never straggles. Small
  // batches draw per task; large batches use the deterministic expected
  // count (same scheme the straggler model uses).
  int64_t failing = 0;
  if (failures_.task_failure_probability > 0.0) {
    if (count <= 16) {
      for (int64_t t = 0; t < count; ++t) {
        if (failure_rng_.NextBernoulli(failures_.task_failure_probability)) {
          ++failing;
        }
      }
    } else {
      failing = static_cast<int64_t>(std::llround(
          static_cast<double>(count) * failures_.task_failure_probability));
    }
  }
  if (failing > 0) {
    double waste = duration * failures_.failure_point;
    PushEvent(now + waste, Event::Kind::kTasksFailed, job_index, kind,
              failing, attempt, waste);
  }
  const int64_t surviving = count - failing;
  if (surviving <= 0) {
    Refresh(job_index);
    return;
  }

  int64_t stragglers = 0;
  if (options_.straggler_probability > 0.0) {
    if (surviving <= 16) {
      for (int64_t t = 0; t < surviving; ++t) {
        if (rng_.NextBernoulli(options_.straggler_probability)) ++stragglers;
      }
    } else {
      stragglers = static_cast<int64_t>(std::llround(
          static_cast<double>(surviving) * options_.straggler_probability));
    }
  }
  if (surviving - stragglers > 0) {
    PushEvent(now + duration, Event::Kind::kTasksDone, job_index, kind,
              surviving - stragglers, attempt, duration);
  }
  if (stragglers > 0) {
    double effective_factor = options_.straggler_factor;
    int64_t siblings =
        kind == TaskKind::kMap ? job.maps_total : job.reduces_total;
    if (options_.speculative_execution && siblings >= 2) {
      // Siblings expose the straggler; a backup launched when they
      // finish completes at ~2x the normal duration.
      effective_factor = std::min(effective_factor, 2.0);
    }
    PushEvent(now + duration * effective_factor, Event::Kind::kTasksDone,
              job_index, kind, stragglers, attempt,
              duration * effective_factor);
  }
  Refresh(job_index);
}

// A batch of `count` tasks failed at `attempt`: either the job's attempt
// budget is exhausted (kill the job, Hadoop-style) or the tasks rejoin
// the unlaunched pool at the next attempt level after a linear backoff.
void ReplayEngine::HandleAttemptFailure(size_t job_index, TaskKind kind,
                                        int attempt, int64_t count,
                                        double now) {
  SimJob& job = jobs_[job_index];
  if (job.failed) return;
  if (attempt >= failures_.max_attempts) {
    job.failed = true;
    ++result_.failures.failed_jobs;
    UnlinkActive(job_index);
    // A killed job will never meet its deadline (scored as an SLA miss)
    // and returns its tenant token immediately.
    AccountSla(job, /*killed=*/true);
    ReleaseAdmission(job_index, now);
    Refresh(job_index);
    return;
  }
  int next_attempt = attempt + 1;
  if (kind == TaskKind::kMap) {
    job.map_attempt = std::max(job.map_attempt, next_attempt);
    job.map_relaunch_debt += count;
  } else {
    job.reduce_attempt = std::max(job.reduce_attempt, next_attempt);
    job.reduce_relaunch_debt += count;
  }
  double ready =
      now + failures_.retry_backoff_seconds * static_cast<double>(attempt);
  if (ready > job.retry_ready_time) job.retry_ready_time = ready;
  // The kWake event is always pushed (even when a later wake already
  // covers this job): it re-enters the grant loop at the backoff expiry,
  // and skipping it would shift the shared seq counter and change FIFO
  // tie-breaks downstream.
  if (ready > now) {
    PushEvent(ready, Event::Kind::kWake, job_index, kind, 0, 1, 0.0);
  }
  if (job.retry_ready_time > now && !parked_[job_index]) {
    parked_[job_index] = 1;
    parked_heap_.emplace_back(job.retry_ready_time, job_index);
    std::push_heap(parked_heap_.begin(), parked_heap_.end(),
                   std::greater<>());
    Refresh(job_index);
  }
}

void ReplayEngine::TryAdmit(size_t i, double now) {
  if (!options_.sla.admission_enabled() || admitted_[i]) return;
  SimJob& job = jobs_[i];
  const int tenant = job.tenant_id;
  if (tenant_running_[tenant] < options_.sla.tenant_max_running) {
    admitted_[i] = 1;
    ++tenant_running_[tenant];
    if (job.admission_parked) {
      job.admission_parked = false;
      job.admission_wait = now - job.admission_park_time;
    }
    Refresh(i);
  } else {
    job.admission_parked = true;
    job.admission_park_time = now;
    adm_next_[i] = kNone;
    if (adm_tail_[tenant] != kNone) {
      adm_next_[adm_tail_[tenant]] = i;
    } else {
      adm_head_[tenant] = i;
    }
    adm_tail_[tenant] = i;
  }
}

void ReplayEngine::ReleaseAdmission(size_t i, double now) {
  if (!options_.sla.admission_enabled() || !admitted_[i]) return;
  admitted_[i] = 0;
  const int tenant = jobs_[i].tenant_id;
  --tenant_running_[tenant];
  const size_t next = adm_head_[tenant];
  if (next != kNone) {
    adm_head_[tenant] = adm_next_[next];
    if (adm_head_[tenant] == kNone) adm_tail_[tenant] = kNone;
    adm_next_[next] = kNone;
    // The token just freed guarantees this admit succeeds, keeping the
    // queue strictly FIFO per tenant.
    TryAdmit(next, now);
  }
}

bool ReplayEngine::PreemptKind(TaskKind kind, double now) {
  if (preempt_budget_left_ <= 0) return false;
  int64_t& free_slots =
      kind == TaskKind::kMap ? free_map_slots_ : free_reduce_slots_;
  if (free_slots > 0) return false;
  // Earliest-submitted interactive job with unlaunched tasks of `kind`
  // (ties to lowest index, like every policy): the interactive tier's
  // heap head.
  const Span<size_t> interactive_tier =
      (kind == TaskKind::kMap ? runnable_maps_ : runnable_reduces_)
          .view()
          .small;
  if (interactive_tier.empty()) return false;
  const size_t want = interactive_tier[0];
  // Victim: the large job with the most remaining work among those with
  // revocable running tasks of the kind (running minus tasks already
  // reserved by node-loss kills or earlier revocations). Ties break to
  // the latest-submitted, highest-index elephant - preempting the
  // youngest equal-size victim loses the least sunk scheduling progress.
  size_t victim = kNone;
  double victim_work = -1.0;
  double victim_submit = -1.0;
  int64_t victim_revocable = 0;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const SimJob& job = jobs_[i];
    if (job.is_small || job.failed) continue;
    const int64_t pinned =
        kind == TaskKind::kMap
            ? job.kill_pending_maps + job.preempt_pending_maps
            : job.kill_pending_reduces + job.preempt_pending_reduces;
    const int64_t revocable =
        (kind == TaskKind::kMap ? job.maps_running()
                                : job.reduces_running()) -
        pinned;
    if (revocable <= 0) continue;
    const double work = job.RemainingWork();
    if (victim == kNone || work > victim_work ||
        (work == victim_work &&
         (job.submit_time > victim_submit ||
          (job.submit_time == victim_submit && i > victim)))) {
      victim = i;
      victim_work = work;
      victim_submit = job.submit_time;
      victim_revocable = revocable;
    }
  }
  if (victim == kNone) return false;
  SimJob& interactive = jobs_[want];
  SimJob& elephant = jobs_[victim];
  const int64_t need =
      kind == TaskKind::kMap
          ? interactive.maps_total - interactive.maps_launched
          : interactive.reduces_total - interactive.reduces_launched;
  const int64_t revoke =
      std::min({need, victim_revocable, preempt_budget_left_});
  if (revoke <= 0) return false;
  // Revocation: the tasks leave the running pool now (slots free, counts
  // roll back) and re-join the unlaunched pool via relaunch debt, so
  // their re-launch is counted as retries exactly like failure recovery.
  // Their already-queued completion/failure events are swallowed later
  // through preempt_pending (mirroring kill_pending's heartbeat-timeout
  // consumption).
  if (kind == TaskKind::kMap) {
    elephant.maps_launched -= revoke;
    elephant.preempt_pending_maps += revoke;
    elephant.map_relaunch_debt += revoke;
    context_.large_running_maps -= revoke;
  } else {
    elephant.reduces_launched -= revoke;
    elephant.preempt_pending_reduces += revoke;
    elephant.reduce_relaunch_debt += revoke;
    context_.large_running_reduces -= revoke;
  }
  free_slots += revoke;
  elephant.preempted_tasks += revoke;
  result_.sla.preempted_tasks += revoke;
  ++result_.sla.preemption_rounds;
  preempt_budget_left_ -= revoke;
  Refresh(victim);
  LaunchBatch(want, kind, now, revoke);
  return true;
}

void ReplayEngine::AccountSla(const SimJob& job, bool killed) {
  if (job.deadline >= 0.0) {
    const bool missed = killed || job.finish_time > job.deadline;
    if (job.is_small) {
      ++result_.sla.small_jobs_with_deadline;
      if (missed) ++result_.sla.small_misses;
    } else {
      ++result_.sla.large_jobs_with_deadline;
      if (missed) ++result_.sla.large_misses;
    }
  }
  if (options_.sla.admission_enabled()) {
    TenantStats& tenant = result_.sla.tenants[job.tenant_id];
    ++tenant.jobs;
    if (job.admission_park_time >= 0.0) {
      ++tenant.parked_jobs;
      ++result_.sla.admission_parked_jobs;
      tenant.total_admission_delay += job.admission_wait;
      result_.sla.total_admission_delay += job.admission_wait;
      tenant.max_admission_delay =
          std::max(tenant.max_admission_delay, job.admission_wait);
    }
  }
}

bool ReplayEngine::GrantKind(TaskKind kind, double now) {
  int64_t& free_slots =
      kind == TaskKind::kMap ? free_map_slots_ : free_reduce_slots_;
  if (free_slots <= 0) return false;
  const RunnableView runnable =
      (kind == TaskKind::kMap ? runnable_maps_ : runnable_reduces_).view();
  if (runnable.empty()) return false;
  int64_t total_slots =
      kind == TaskKind::kMap ? total_map_slots_ : total_reduce_slots_;
  int pick = scheduler_->PickJob(jobs_, runnable, kind,
                                 static_cast<int>(total_slots), context_);
  if (pick < 0) return false;
  SimJob& job = jobs_[pick];
  int64_t remaining = kind == TaskKind::kMap
                          ? job.maps_total - job.maps_launched
                          : job.reduces_total - job.reduces_launched;
  // Fair share per grant round: no single pick absorbs every free slot
  // while other jobs are runnable.
  int64_t batch =
      std::max<int64_t>(1, free_slots / static_cast<int64_t>(
                                            runnable.size()));
  batch = std::min({batch, remaining, free_slots});
  batch = std::min(
      batch, scheduler_->BatchLimit(jobs_, pick, kind,
                                    static_cast<int>(total_slots), context_));
  if (batch < 1) return false;
  ++result_.engine.grants;
  LaunchBatch(static_cast<size_t>(pick), kind, now, batch);
  return true;
}

void ReplayEngine::ScheduleLoop(double now) {
  context_.now = now;
  // Unpark every job whose retry backoff has expired before granting, so
  // the runnable sets hold exactly the jobs with retry_ready_time <= now,
  // even when the expiry coincides with another event at the same
  // timestamp.
  while (!parked_heap_.empty() && parked_heap_.front().first <= now) {
    std::pop_heap(parked_heap_.begin(), parked_heap_.end(),
                  std::greater<>());
    size_t job_index = parked_heap_.back().second;
    parked_heap_.pop_back();
    if (!parked_[job_index]) continue;  // stale entry
    if (jobs_[job_index].retry_ready_time <= now) {
      parked_[job_index] = 0;
      Refresh(job_index);
    } else {
      // The backoff was extended after this entry was pushed; re-park at
      // the current expiry.
      parked_heap_.emplace_back(jobs_[job_index].retry_ready_time,
                                job_index);
      std::push_heap(parked_heap_.begin(), parked_heap_.end(),
                     std::greater<>());
    }
  }
  bool granted = true;
  while (granted) {
    granted = false;
    granted |= GrantKind(TaskKind::kMap, now);
    granted |= GrantKind(TaskKind::kReduce, now);
  }
  // Elephant preemption runs after normal grants: only when a pool is
  // saturated and an interactive job is still waiting may running
  // elephant tasks be revoked. The loop is bounded by the per-run budget
  // (each successful round revokes >= 1 task).
  if (preempt_budget_left_ > 0) {
    bool preempted = true;
    while (preempted) {
      preempted = false;
      preempted |= PreemptKind(TaskKind::kMap, now);
      preempted |= PreemptKind(TaskKind::kReduce, now);
    }
  }
}

StatusOr<ReplayResult> ReplayEngine::Run() {
  if (options_.cluster.nodes <= 0 ||
      options_.cluster.map_slots_per_node <= 0 ||
      options_.cluster.reduce_slots_per_node < 0) {
    return InvalidArgumentError("invalid cluster configuration");
  }
  Status straggler_status = ValidateStragglerOptions(options_);
  if (!straggler_status.ok()) return straggler_status;
  Status failure_status = ValidateFailureOptions(failures_);
  if (!failure_status.ok()) return failure_status;
  Status sla_status = ValidateSlaOptions(options_.sla);
  if (!sla_status.ok()) return sla_status;

  auto scheduler = MakeScheduler(options_.scheduler);
  if (!scheduler.ok()) return scheduler.status();
  scheduler_ = std::move(scheduler).value();
  preempt_budget_left_ = options_.sla.preemption_budget;

  // The per-trace build phase already happened (shared ReplayTemplate);
  // a run starts from a bulk copy of the skeletons — SimJob is trivially
  // copyable, so this is one memcpy-shaped pass into the lane's arena.
  jobs_.assign(tpl_.jobs().begin(), tpl_.jobs().end());

  const size_t n = jobs_.size();
  arrived_.assign(n, 0);
  parked_.assign(n, 0);
  in_active_.assign(n, 0);
  active_prev_.assign(n, kNone);
  active_next_.assign(n, kNone);
  runnable_maps_.Reset(jobs_, tpl_.small_job_count());
  runnable_reduces_.Reset(jobs_, tpl_.small_job_count());

  if (options_.sla.admission_enabled()) {
    admitted_.assign(n, 0);
    adm_next_.assign(n, kNone);
    adm_head_.assign(static_cast<size_t>(options_.sla.tenants), kNone);
    adm_tail_.assign(static_cast<size_t>(options_.sla.tenants), kNone);
    tenant_running_.assign(static_cast<size_t>(options_.sla.tenants), 0);
    result_.sla.tenants.resize(static_cast<size_t>(options_.sla.tenants));
    for (int t = 0; t < options_.sla.tenants; ++t) {
      result_.sla.tenants[static_cast<size_t>(t)].tenant = t;
    }
  }

  // Arrivals stream from the submit-sorted job table: only the next one
  // is queued, pushed when its predecessor pops, and arrival i keeps seq
  // i, so the pop order is that of queueing all of them up front.
  PushArrival(0);
  seq_ = n;

  total_map_slots_ = options_.cluster.total_map_slots();
  total_reduce_slots_ = options_.cluster.total_reduce_slots();
  free_map_slots_ = total_map_slots_;
  free_reduce_slots_ = total_reduce_slots_;

  result_.scheduler = scheduler_->name();
  // The result is returned to the caller and must survive the lane's
  // arena reset, so outcomes stay heap-backed; one reservation keeps the
  // run's heap traffic to a handful of calls.
  result_.outcomes.reserve(n);

  const double first_submit = tpl_.first_submit();
  const double loss_rate_per_second = failures_.node_loss_per_hour / 3600.0;
  if (loss_rate_per_second > 0.0) {
    PushNodeLoss(first_submit +
                 loss_rng_.NextExponential(loss_rate_per_second));
  }

  double last_finish = 0.0;
  while (!queue_.empty() && !past_horizon_) {
    Event event = queue_.Pop();
    int64_t busy = (total_map_slots_ - free_map_slots_) +
                   (total_reduce_slots_ - free_reduce_slots_);
    meter_.Advance(event.time, busy, occupancy_slot_seconds_);

    SimJob& job = jobs_[event.job_index];
    switch (event.kind) {
      case Event::Kind::kArrival:
        if (event.job_index + 1 < n) PushArrival(event.job_index + 1);
        arrived_[event.job_index] = 1;
        LinkActive(event.job_index);
        // Admission gates only eligible jobs (arrived AND parent-free):
        // a parent-blocked job must not hold a tenant token its own
        // parent is waiting for. Parent-blocked jobs admit from the
        // parent-finish path instead.
        if (job.unfinished_parents == 0) {
          TryAdmit(event.job_index, event.time);
        }
        Refresh(event.job_index);
        break;
      case Event::Kind::kWake:
        break;  // only here to re-enter the grant loop after a backoff
      case Event::Kind::kNodeLoss: {
        ++result_.failures.node_losses;
        // One node's worth of running slots dies. Victims are drawn from
        // active jobs in arrival order (deterministic); the kill is
        // charged when the affected wave completes, matching Hadoop's
        // heartbeat-timeout detection of lost TaskTrackers.
        int64_t map_quota = options_.cluster.map_slots_per_node;
        int64_t reduce_quota = options_.cluster.reduce_slots_per_node;
        for (size_t index = active_head_; index != kNone;
             index = active_next_[index]) {
          SimJob& victim = jobs_[index];
          if (map_quota > 0) {
            int64_t take = std::min(
                map_quota, victim.maps_running() - victim.kill_pending_maps);
            if (take > 0) {
              victim.kill_pending_maps += take;
              map_quota -= take;
            }
          }
          if (reduce_quota > 0) {
            int64_t take = std::min(reduce_quota,
                                    victim.reduces_running() -
                                        victim.kill_pending_reduces);
            if (take > 0) {
              victim.kill_pending_reduces += take;
              reduce_quota -= take;
            }
          }
          if (map_quota == 0 && reduce_quota == 0) break;
        }
        // Self-reschedule while the simulation still has work; stop when
        // this was the last event so the loop terminates.
        if (!queue_.empty()) {
          PushNodeLoss(event.time +
                       loss_rng_.NextExponential(loss_rate_per_second));
        }
        break;
      }
      case Event::Kind::kTasksFailed: {
        // Preempted tasks consumed first: a revoked task already left the
        // running pool (slot freed, launch count rolled back) and sits in
        // the relaunch-debt queue - its old in-flight failure must not
        // fail it a second time.
        int64_t& preempt_pending = event.task_kind == TaskKind::kMap
                                       ? job.preempt_pending_maps
                                       : job.preempt_pending_reduces;
        const int64_t revoked = std::min(event.count, preempt_pending);
        preempt_pending -= revoked;
        const int64_t effective = event.count - revoked;
        if (event.task_kind == TaskKind::kMap) {
          job.maps_launched -= effective;
          free_map_slots_ += effective;
          if (!job.is_small) context_.large_running_maps -= effective;
          // Tasks that died on their own also satisfy any pending
          // node-loss kill (they no longer exist to be killed later).
          job.kill_pending_maps =
              std::max<int64_t>(0, job.kill_pending_maps - effective);
        } else {
          job.reduces_launched -= effective;
          free_reduce_slots_ += effective;
          if (!job.is_small) context_.large_running_reduces -= effective;
          job.kill_pending_reduces =
              std::max<int64_t>(0, job.kill_pending_reduces - effective);
        }
        result_.failures.task_failures += effective;
        result_.failures.failed_task_seconds +=
            static_cast<double>(effective) * event.unit_seconds;
        context_.failed_attempts += effective;
        if (effective > 0) {
          HandleAttemptFailure(event.job_index, event.task_kind,
                               event.attempt, effective, event.time);
        }
        Refresh(event.job_index);
        break;
      }
      case Event::Kind::kTasksDone: {
        int64_t killed = 0;
        // Node-loss kills consume completions first (they reserved
        // running tasks), then preempted tasks are swallowed: a revoked
        // task's slot was freed and its launch count rolled back at
        // revocation time, so this event neither finishes nor re-frees
        // it.
        int64_t revoked = 0;
        if (event.task_kind == TaskKind::kMap) {
          if (job.kill_pending_maps > 0) {
            killed = std::min(event.count, job.kill_pending_maps);
            job.kill_pending_maps -= killed;
          }
          if (job.preempt_pending_maps > 0) {
            revoked = std::min(event.count - killed,
                               job.preempt_pending_maps);
            job.preempt_pending_maps -= revoked;
          }
          job.maps_finished += event.count - killed - revoked;
          job.maps_launched -= killed;
          free_map_slots_ += event.count - revoked;
          if (!job.is_small) {
            context_.large_running_maps -= event.count - revoked;
          }
        } else {
          if (job.kill_pending_reduces > 0) {
            killed = std::min(event.count, job.kill_pending_reduces);
            job.kill_pending_reduces -= killed;
          }
          if (job.preempt_pending_reduces > 0) {
            revoked = std::min(event.count - killed,
                               job.preempt_pending_reduces);
            job.preempt_pending_reduces -= revoked;
          }
          job.reduces_finished += event.count - killed - revoked;
          job.reduces_launched -= killed;
          free_reduce_slots_ += event.count - revoked;
          if (!job.is_small) {
            context_.large_running_reduces -= event.count - revoked;
          }
        }
        if (killed > 0) {
          result_.failures.tasks_lost_to_nodes += killed;
          result_.failures.failed_task_seconds +=
              static_cast<double>(killed) * event.unit_seconds;
          context_.failed_attempts += killed;
          HandleAttemptFailure(event.job_index, event.task_kind,
                               event.attempt, killed, event.time);
        }
        if (!job.failed && job.Finished() && job.finish_time < 0.0) {
          job.finish_time = event.time;
          last_finish = std::max(last_finish, event.time);
          UnlinkActive(event.job_index);
          if (!tpl_.child_offsets().empty()) {
            const std::vector<uint32_t>& offsets = tpl_.child_offsets();
            const std::vector<uint32_t>& index = tpl_.child_index();
            for (uint32_t c = offsets[event.job_index];
                 c < offsets[event.job_index + 1]; ++c) {
              const size_t child = index[c];
              --jobs_[child].unfinished_parents;
              if (jobs_[child].unfinished_parents == 0 &&
                  arrived_[child] != 0) {
                TryAdmit(child, event.time);
              }
              Refresh(child);
            }
          }
          // Token release after the children admit: a same-tenant child
          // may park here and be popped by this release, preserving the
          // per-tenant FIFO order.
          ReleaseAdmission(event.job_index, event.time);
          AccountSla(job, /*killed=*/false);
          JobOutcome outcome;
          outcome.job_id = job.job_id;
          outcome.submit_time = job.submit_time;
          outcome.latency = job.finish_time - job.submit_time;
          outcome.ideal_latency = job.IdealLatency();
          outcome.is_small = job.is_small;
          outcome.retries = job.retries;
          outcome.deadline = job.deadline;
          outcome.missed_sla =
              job.deadline >= 0.0 && job.finish_time > job.deadline;
          outcome.tenant = job.tenant_id;
          outcome.preempted_tasks = job.preempted_tasks;
          outcome.admission_delay = job.admission_wait;
          result_.outcomes.push_back(outcome);
        }
        Refresh(event.job_index);
        break;
      }
    }
    ScheduleLoop(event.time);
  }
  // Checked before the meter sees the event: past the horizon its hourly
  // buckets alone would take gigabytes.
  if (past_horizon_) {
    char when[96];
    std::snprintf(when, sizeof(when),
                  " has an event at t=%g s, more than %.0f hours (100 years) "
                  "after time zero",
                  past_horizon_->time, trace::kMaxTraceHours);
    return InvalidArgumentError(
        "job " +
        std::to_string(jobs_[past_horizon_->job_index].job_id) +
        when);
  }

  for (const SimJob& job : jobs_) {
    if (job.finish_time < 0.0) ++result_.unfinished_jobs;
  }
  result_.makespan = std::max(0.0, last_finish - first_submit);
  result_.hourly_occupancy.reserve(occupancy_slot_seconds_.size());
  for (double slot_seconds : occupancy_slot_seconds_) {
    result_.hourly_occupancy.push_back(slot_seconds / 3600.0);
  }
  result_.utilization = Utilization(
      meter_, total_map_slots_ + total_reduce_slots_, result_.makespan,
      first_submit);
  // Every event pushed was popped: the loop above drains the queue.
  result_.engine.events = static_cast<int64_t>(seq_);
  result_.engine.coalesced_events =
      static_cast<int64_t>(queue_.coalesced());
  result_.engine.peak_runnable_maps =
      static_cast<int64_t>(runnable_maps_.peak_size());
  result_.engine.peak_runnable_reduces =
      static_cast<int64_t>(runnable_reduces_.peak_size());
  Status postcondition = CheckReplayResult(result_, n);
  if (!postcondition.ok()) return postcondition;
  return std::move(result_);
}

}  // namespace

stats::SortedStats ReplayResult::LatencyStats(bool small_jobs) const {
  std::vector<double> latencies;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) latencies.push_back(o.latency);
  }
  return stats::SortedStats(std::move(latencies));
}

double ReplayResult::LatencyQuantile(bool small_jobs, double p) const {
  return LatencyStats(small_jobs).Quantile(p);
}

double ReplayResult::MeanSlowdown(bool small_jobs) const {
  double total = 0.0;
  size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) {
      total += o.Slowdown();
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

size_t ReplayResult::CountJobs(bool small_jobs) const {
  size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) ++count;
  }
  return count;
}

namespace {

/// Appends fixed-width raw bit patterns; the byte stream ReplayResultDigest
/// hashes.
class CanonicalBytes {
 public:
  template <typename T>
  CanonicalBytes& Add(T value) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::is_same_v<T, bool>) {
      bytes_.push_back(value ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      AppendRaw(static_cast<uint64_t>(value));
    } else {
      AppendRaw(static_cast<double>(value));
    }
    return *this;
  }
  CanonicalBytes& Add(const std::string& text) {
    Add(text.size());
    bytes_.append(text);
    return *this;
  }
  uint64_t Digest() const { return Checksum64(bytes_.data(), bytes_.size()); }

 private:
  template <typename T>
  void AppendRaw(T value) {
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes_.append(raw, sizeof(T));
  }

  std::string bytes_;
};

}  // namespace

Status CheckReplayResult(const ReplayResult& result, size_t jobs) {
  if (result.outcomes.size() + result.unfinished_jobs != jobs) {
    return InternalError(
        "replay postcondition: " + std::to_string(result.outcomes.size()) +
        " outcomes + " + std::to_string(result.unfinished_jobs) +
        " unfinished != " + std::to_string(jobs) + " jobs");
  }
  if (!(result.utilization >= 0.0 && result.utilization <= 1.0)) {
    return InternalError("replay postcondition: utilization " +
                         std::to_string(result.utilization) +
                         " outside [0, 1]");
  }
  return Status::Ok();
}

uint64_t ReplayResultDigest(const ReplayResult& result) {
  CanonicalBytes bytes;
  bytes.Add(result.scheduler).Add(result.outcomes.size());
  for (const JobOutcome& o : result.outcomes) {
    bytes.Add(o.job_id).Add(o.submit_time).Add(o.latency).Add(o.ideal_latency)
        .Add(o.is_small).Add(o.retries).Add(o.deadline).Add(o.missed_sla)
        .Add(o.tenant).Add(o.preempted_tasks).Add(o.admission_delay);
  }
  const FailureStats& f = result.failures;
  bytes.Add(result.unfinished_jobs).Add(f.task_failures).Add(f.node_losses)
      .Add(f.tasks_lost_to_nodes).Add(f.retries).Add(f.failed_jobs)
      .Add(f.failed_task_seconds);
  const SlaStats& s = result.sla;
  bytes.Add(s.small_jobs_with_deadline).Add(s.large_jobs_with_deadline)
      .Add(s.small_misses).Add(s.large_misses).Add(s.preemption_rounds)
      .Add(s.preempted_tasks).Add(s.admission_parked_jobs)
      .Add(s.total_admission_delay).Add(s.tenants.size());
  for (const TenantStats& t : s.tenants) {
    bytes.Add(t.tenant).Add(t.jobs).Add(t.parked_jobs)
        .Add(t.total_admission_delay).Add(t.max_admission_delay);
  }
  bytes.Add(result.hourly_occupancy.size());
  for (double hour : result.hourly_occupancy) bytes.Add(hour);
  bytes.Add(result.makespan).Add(result.utilization);
  return bytes.Digest();
}

namespace {

bool SameDependencies(
    const FlatHashMap<uint64_t, std::vector<uint64_t>>& a,
    const FlatHashMap<uint64_t, std::vector<uint64_t>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [child, parents] : a) {
    auto it = b.find(child);
    if (it == b.end() || it->second != parents) return false;
  }
  return true;
}

}  // namespace

StatusOr<ReplayTemplate> ReplayTemplate::Build(const trace::Trace& trace,
                                               const ReplayOptions& base) {
  if (trace.empty()) return InvalidArgumentError("empty trace");
  if (base.max_tasks_per_job < 1) {
    return InvalidArgumentError("max_tasks_per_job must be >= 1");
  }
  Status sla_status = ValidateSlaOptions(base.sla);
  if (!sla_status.ok()) return sla_status;

  ReplayTemplate tpl;
  tpl.max_tasks_per_job_ = base.max_tasks_per_job;
  tpl.small_job_bytes_ = base.small_job_bytes;
  tpl.sla_small_multiplier_ = base.sla.small_multiplier;
  tpl.sla_large_multiplier_ = base.sla.large_multiplier;
  tpl.sla_tenants_ = base.sla.tenants;
  tpl.dependencies_ = base.dependencies;

  // Build the job skeletons from the columns (submit-sorted). This is the
  // exact conversion the engine used to run per replay.
  const trace::JobColumns c = trace.columns();
  tpl.jobs_.reserve(c.size);
  for (size_t i = 0; i < c.size; ++i) {
    SimJob job;
    job.job_id = c.job_id[i];
    job.submit_time = c.submit_time[i];
    // JobRecord::TotalBytes' shape.
    job.is_small = c.input_bytes[i] + c.shuffle_bytes[i] + c.output_bytes[i] <
                   base.small_job_bytes;
    job.maps_total = std::min(std::max<int64_t>(c.map_tasks[i], 1),
                              base.max_tasks_per_job);
    job.map_task_duration = std::max(
        c.map_task_seconds[i] / static_cast<double>(job.maps_total), 1e-3);
    job.reduces_total = std::min(c.reduce_tasks[i], base.max_tasks_per_job);
    if (job.reduces_total > 0) {
      job.reduce_task_duration =
          std::max(c.reduce_task_seconds[i] /
                       static_cast<double>(job.reduces_total),
                   1e-3);
    }
    // SLA tier: the deadline is an ideal-latency multiple (per class),
    // absolute from the submit time; the tenant is a stable hash of the
    // job id so sweeps over cluster size keep tenant assignment fixed.
    job.deadline = job.submit_time +
                   job.IdealLatency() * (job.is_small
                                             ? base.sla.small_multiplier
                                             : base.sla.large_multiplier);
    if (base.sla.tenants > 0) {
      job.tenant_id = static_cast<int>(
          job.job_id % static_cast<uint64_t>(base.sla.tenants));
    }
    if (job.is_small) ++tpl.small_job_count_;
    tpl.jobs_.push_back(job);
  }
  tpl.first_submit_ = tpl.jobs_.front().submit_time;

  // Workflow dependencies: resolve job ids to indices, wire parent
  // counters into the skeletons, and flatten child lists to CSR (two
  // passes over the map; per-parent child order matches the old
  // vector-of-vectors fill order).
  if (!base.dependencies.empty()) {
    FlatHashMap<uint64_t, size_t> index_of;
    index_of.reserve(tpl.jobs_.size());
    for (size_t i = 0; i < tpl.jobs_.size(); ++i) {
      index_of[tpl.jobs_[i].job_id] = i;
    }
    const size_t n = tpl.jobs_.size();
    std::vector<uint32_t> counts(n, 0);
    for (const auto& [child_id, parent_ids] : base.dependencies) {
      auto child_it = index_of.find(child_id);
      if (child_it == index_of.end()) {
        return InvalidArgumentError("dependency references unknown job " +
                                    std::to_string(child_id));
      }
      for (uint64_t parent_id : parent_ids) {
        auto parent_it = index_of.find(parent_id);
        if (parent_it == index_of.end()) {
          return InvalidArgumentError("dependency references unknown job " +
                                      std::to_string(parent_id));
        }
        ++tpl.jobs_[child_it->second].unfinished_parents;
        ++counts[parent_it->second];
      }
    }
    tpl.child_offsets_.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      tpl.child_offsets_[i + 1] = tpl.child_offsets_[i] + counts[i];
    }
    tpl.child_index_.resize(tpl.child_offsets_[n]);
    std::vector<uint32_t> cursor(tpl.child_offsets_.begin(),
                                 tpl.child_offsets_.end() - 1);
    for (const auto& [child_id, parent_ids] : base.dependencies) {
      const size_t child = index_of.find(child_id)->second;
      for (uint64_t parent_id : parent_ids) {
        const size_t parent = index_of.find(parent_id)->second;
        tpl.child_index_[cursor[parent]++] = static_cast<uint32_t>(child);
      }
    }
  }
  return tpl;
}

bool ReplayTemplate::Compatible(const ReplayOptions& options) const {
  return options.max_tasks_per_job == max_tasks_per_job_ &&
         options.small_job_bytes == small_job_bytes_ &&
         options.sla.small_multiplier == sla_small_multiplier_ &&
         options.sla.large_multiplier == sla_large_multiplier_ &&
         options.sla.tenants == sla_tenants_ &&
         SameDependencies(options.dependencies, dependencies_);
}

StatusOr<ReplayResult> ReplayTemplate::Replay(const ReplayOptions& options,
                                              Arena* arena) const {
  if (!Compatible(options)) {
    return InvalidArgumentError(
        "replay options disagree with the template's captured "
        "max_tasks_per_job / small_job_bytes / dependencies / SLA shape");
  }
  return ReplayEngine(*this, options, arena).Run();
}

StatusOr<ReplayResult> ReplayTrace(const trace::Trace& trace,
                                   const ReplayOptions& options) {
  auto tpl = ReplayTemplate::Build(trace, options);
  if (!tpl.ok()) return tpl.status();
  return tpl->Replay(options, /*arena=*/nullptr);
}

}  // namespace swim::sim
