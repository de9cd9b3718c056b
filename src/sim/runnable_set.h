#ifndef SWIM_SIM_RUNNABLE_SET_H_
#define SWIM_SIM_RUNNABLE_SET_H_

#include <cstddef>

#include "common/arena.h"
#include "common/span.h"
#include "sim/scheduler.h"
#include "sim/sim_job.h"

namespace swim::sim {

/// The replay engine's runnable jobs of one task kind, kept as two
/// indexed binary min-heaps - the interactive tier (SimJob::is_small) and
/// the capacity tier - ordered by SubmitsBefore. view() hands them to
/// Scheduler::PickJob as a RunnableView, so each tier's FIFO head is
/// element [0]. Insert and Erase cost O(log tier size); a per-job
/// position index makes membership tests O(1) and lets Erase remove a
/// job from the middle of its heap.
///
/// A member's submit_time and is_small must not change while it is in the
/// set (both are fixed per job by ReplayTemplate::Build).
class RunnableSet {
 public:
  explicit RunnableSet(Arena* arena = nullptr)
      : small_(ArenaAllocator<size_t>(arena)),
        large_(ArenaAllocator<size_t>(arena)),
        pos_(ArenaAllocator<size_t>(arena)) {}

  /// Empties the set over the job table `jobs`, which must outlive it.
  /// Reserves each tier's worst case up front (`small_jobs` of the table
  /// are interactive), so no heap ever grows inside a monotonic arena.
  void Reset(Span<SimJob> jobs, size_t small_jobs) {
    jobs_ = jobs;
    small_.clear();
    large_.clear();
    small_.reserve(small_jobs);
    large_.reserve(jobs.size() - small_jobs);
    pos_.assign(jobs.size(), kAbsent);
    peak_size_ = 0;
  }

  bool Contains(size_t job) const { return pos_[job] != kAbsent; }
  size_t size() const { return small_.size() + large_.size(); }
  /// Largest size() since Reset.
  size_t peak_size() const { return peak_size_; }
  RunnableView view() const { return {small_, large_}; }

  /// Makes job's membership equal `want`; a no-op when it already is.
  /// The engine resyncs membership on every state transition, so the
  /// no-op check stays inline and the heap updates do not.
  void Set(size_t job, bool want) {
    if (want == Contains(job)) return;
    if (want) {
      Insert(job);
    } else {
      Erase(job);
    }
  }

  void Insert(size_t job);
  void Erase(size_t job);

 private:
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  ArenaVector<size_t>& TierOf(size_t job) {
    return jobs_[job].is_small ? small_ : large_;
  }

  bool Before(size_t a, size_t b) const { return SubmitsBefore(jobs_, a, b); }

  void SiftUp(ArenaVector<size_t>& heap, size_t hole);
  void SiftDown(ArenaVector<size_t>& heap, size_t hole);

  Span<SimJob> jobs_;
  ArenaVector<size_t> small_;
  ArenaVector<size_t> large_;
  /// Position of each job inside its tier's heap; kAbsent when not a
  /// member.
  ArenaVector<size_t> pos_;
  size_t peak_size_ = 0;
};

}  // namespace swim::sim

#endif  // SWIM_SIM_RUNNABLE_SET_H_
