#include "sim/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"

namespace swim::sim {
namespace {

/// Pinned tie-break shared by the scanning policies: candidate `index`
/// beats the incumbent `best` (submitted at `best_submit`; -1 = none yet)
/// iff it submits first - SubmitsBefore with the incumbent's submit time
/// passed in rather than reloaded. This makes PickJob a pure function of
/// the runnable *set* - the order jobs happen to sit in the tier heaps can
/// never leak into scheduling decisions.
bool BeatsOnSubmit(Span<SimJob> jobs, size_t index, int best,
                   double best_submit) {
  if (best < 0) return true;
  double submit = jobs[index].submit_time;
  if (submit != best_submit) return submit < best_submit;
  return index < static_cast<size_t>(best);
}

/// Visits every runnable job, interactive tier first.
template <typename Visit>
void ForEachRunnable(const RunnableView& runnable, Visit visit) {
  for (size_t index : runnable.small) visit(index);
  for (size_t index : runnable.large) visit(index);
}

}  // namespace

int FifoScheduler::PickJob(Span<SimJob> jobs, const RunnableView& runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  // Each tier's heap head is its earliest submitter; the earlier of the
  // two heads is the whole set's.
  if (runnable.small.empty()) {
    return runnable.large.empty() ? -1 : static_cast<int>(runnable.large[0]);
  }
  if (runnable.large.empty() ||
      SubmitsBefore(jobs, runnable.small[0], runnable.large[0])) {
    return static_cast<int>(runnable.small[0]);
  }
  return static_cast<int>(runnable.large[0]);
}

int FairScheduler::PickJob(Span<SimJob> jobs, const RunnableView& runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  int best = -1;
  int64_t fewest = std::numeric_limits<int64_t>::max();
  double earliest = std::numeric_limits<double>::max();
  ForEachRunnable(runnable, [&](size_t index) {
    const SimJob& job = jobs[index];
    int64_t held = job.running_tasks();
    if (held < fewest ||
        (held == fewest && BeatsOnSubmit(jobs, index, best, earliest))) {
      fewest = held;
      earliest = job.submit_time;
      best = static_cast<int>(index);
    }
  });
  return best;
}

int TwoTierScheduler::PickJob(Span<SimJob> /*jobs*/,
                              const RunnableView& runnable, TaskKind kind,
                              int total_slots_of_kind,
                              const SchedulerContext& context) {
  // Small tier first, FIFO within tier: both are heap heads.
  if (!runnable.small.empty()) return static_cast<int>(runnable.small[0]);
  int64_t large_cap = static_cast<int64_t>(
      large_share_ * static_cast<double>(total_slots_of_kind));
  // Tiny pools truncate the cap to 0 (1 slot x 0.7 share); with no small
  // job wanting the pool the capacity tier must still get >= 1 slot or
  // large jobs starve forever on 1-slot clusters.
  if (large_cap < 1) large_cap = 1;
  if (!runnable.large.empty() && context.LargeRunning(kind) < large_cap) {
    return static_cast<int>(runnable.large[0]);
  }
  return -1;
}

int64_t TwoTierScheduler::BatchLimit(Span<SimJob> jobs, int picked,
                                     TaskKind kind, int total_slots_of_kind,
                                     const SchedulerContext& context) {
  if (jobs[picked].is_small) return std::numeric_limits<int64_t>::max();
  int64_t cap = static_cast<int64_t>(
      large_share_ * static_cast<double>(total_slots_of_kind));
  // Matches the PickJob clamp: a picked large job is always allowed at
  // least one slot, or the grant would truncate to a 0-task batch and the
  // pool would idle with runnable work (the 1-slot-cluster starvation bug).
  if (cap < 1) cap = 1;
  return std::max<int64_t>(0, cap - context.LargeRunning(kind));
}

int SrptScheduler::PickJob(Span<SimJob> jobs, const RunnableView& runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  int best = -1;
  double least_work = std::numeric_limits<double>::max();
  double earliest = std::numeric_limits<double>::max();
  ForEachRunnable(runnable, [&](size_t index) {
    double work = jobs[index].RemainingWork();
    if (work < least_work ||
        (work == least_work && BeatsOnSubmit(jobs, index, best, earliest))) {
      least_work = work;
      earliest = jobs[index].submit_time;
      best = static_cast<int>(index);
    }
  });
  return best;
}

int DeadlineScheduler::PickJob(Span<SimJob> jobs,
                               const RunnableView& runnable,
                               TaskKind /*kind*/,
                               int /*total_slots_of_kind*/,
                               const SchedulerContext& context) {
  // Two ranked pools scanned in one pass: overdue jobs (deadline already
  // passed at context.now) ordered by least remaining work, then on-time
  // jobs ordered by earliest deadline (no deadline ranks as +inf). Both
  // orderings are pure functions of the runnable set, so heap order never
  // leaks into the pick.
  int best_overdue = -1;
  double overdue_work = std::numeric_limits<double>::max();
  double overdue_submit = std::numeric_limits<double>::max();
  int best_ontime = -1;
  double ontime_deadline = std::numeric_limits<double>::max();
  double ontime_submit = std::numeric_limits<double>::max();
  ForEachRunnable(runnable, [&](size_t index) {
    const SimJob& job = jobs[index];
    const bool has_deadline = job.deadline >= 0.0;
    if (has_deadline && job.deadline < context.now) {
      double work = job.RemainingWork();
      if (work < overdue_work ||
          (work == overdue_work &&
           BeatsOnSubmit(jobs, index, best_overdue, overdue_submit))) {
        overdue_work = work;
        overdue_submit = job.submit_time;
        best_overdue = static_cast<int>(index);
      }
    } else {
      double deadline = has_deadline ? job.deadline
                                     : std::numeric_limits<double>::max();
      if (deadline < ontime_deadline ||
          (deadline == ontime_deadline &&
           BeatsOnSubmit(jobs, index, best_ontime, ontime_submit))) {
        ontime_deadline = deadline;
        ontime_submit = job.submit_time;
        best_ontime = static_cast<int>(index);
      }
    }
  });
  return best_overdue >= 0 ? best_overdue : best_ontime;
}

const char* ValidSchedulerPolicies() {
  return "fifo, fair, two-tier, srpt, deadline";
}

StatusOr<std::unique_ptr<Scheduler>> MakeScheduler(
    const std::string& policy) {
  std::string normalized = ToLower(policy);
  if (normalized == "fifo") {
    return std::unique_ptr<Scheduler>(std::make_unique<FifoScheduler>());
  }
  if (normalized == "fair") {
    return std::unique_ptr<Scheduler>(std::make_unique<FairScheduler>());
  }
  if (normalized == "two-tier" || normalized == "twotier") {
    return std::unique_ptr<Scheduler>(std::make_unique<TwoTierScheduler>());
  }
  if (normalized == "srpt") {
    return std::unique_ptr<Scheduler>(std::make_unique<SrptScheduler>());
  }
  if (normalized == "deadline") {
    return std::unique_ptr<Scheduler>(std::make_unique<DeadlineScheduler>());
  }
  return InvalidArgumentError("unknown scheduling policy \"" + policy +
                              "\"; valid policies: " +
                              ValidSchedulerPolicies());
}

}  // namespace swim::sim
