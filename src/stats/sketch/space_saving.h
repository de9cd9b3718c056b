#ifndef SWIM_STATS_SKETCH_SPACE_SAVING_H_
#define SWIM_STATS_SKETCH_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash.h"

namespace swim::stats {

/// Space-Saving heavy-hitter sketch (Metwally et al., ICDT'05): tracks at
/// most `capacity` keys; on overflow the minimum-count entry is recycled to
/// the new key, inheriting its count as the new entry's error bound.
///
/// Guarantees, with N = total_weight():
///   - reported count >= true count (never an underestimate),
///   - reported count - error <= true count,
///   - every key with true count > N / capacity is present.
/// The streaming analyzer uses it for "hot file" tracking: the paper's
/// Zipf-distributed file popularity concentrates mass on few paths, which
/// is exactly the regime Space-Saving is designed for.
///
/// Deterministic: the victim on overflow is the lexicographically smallest
/// (count, key) pair, maintained in an indexed binary min-heap, so the same
/// key sequence always yields the same sketch. Not thread-safe.
class SpaceSavingSketch {
 public:
  explicit SpaceSavingSketch(size_t capacity);

  /// Observes `key` with the given weight.
  void Add(uint64_t key, uint64_t weight = 1);

  struct HeavyHitter {
    uint64_t key = 0;
    uint64_t count = 0;  // overestimate; true count in [count-error, count]
    uint64_t error = 0;
  };

  /// The k highest-count entries, ordered by descending count (ties: by
  /// ascending key). Deterministic.
  std::vector<HeavyHitter> TopK(size_t k) const;

  uint64_t total_weight() const { return total_; }
  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }

  /// Smallest tracked count (0 when not yet full) — the bound on any
  /// untracked key's true count.
  uint64_t MinCount() const;

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t count = 0;
    uint64_t error = 0;
    size_t heap_pos = 0;
  };

  bool HeapLess(size_t slot_a, size_t slot_b) const;
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_;  // slot indices, min (count, key) at root
  FlatHashMap<uint64_t, uint32_t> index_;  // key -> slot index
  uint64_t total_ = 0;
};

}  // namespace swim::stats

#endif  // SWIM_STATS_SKETCH_SPACE_SAVING_H_
