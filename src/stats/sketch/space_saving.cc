#include "stats/sketch/space_saving.h"

#include <algorithm>

namespace swim::stats {

SpaceSavingSketch::SpaceSavingSketch(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  slots_.reserve(capacity_);
  heap_.reserve(capacity_);
  index_.reserve(capacity_ * 2);
}

bool SpaceSavingSketch::HeapLess(size_t slot_a, size_t slot_b) const {
  const Slot& a = slots_[slot_a];
  const Slot& b = slots_[slot_b];
  if (a.count != b.count) return a.count < b.count;
  return a.key < b.key;
}

void SpaceSavingSketch::SiftUp(size_t pos) {
  const uint32_t slot = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!HeapLess(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = pos;
}

void SpaceSavingSketch::SiftDown(size_t pos) {
  const uint32_t slot = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && HeapLess(heap_[child + 1], heap_[child])) ++child;
    if (!HeapLess(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    slots_[heap_[pos]].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = pos;
}

void SpaceSavingSketch::Add(uint64_t key, uint64_t weight) {
  total_ += weight;
  auto it = index_.find(key);
  if (it != index_.end()) {
    const uint32_t slot = it->second;
    slots_[slot].count += weight;
    SiftDown(slots_[slot].heap_pos);  // count grew: can only move down
    return;
  }
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{key, weight, 0, heap_.size()});
    heap_.push_back(slot);
    index_[key] = slot;
    SiftUp(slots_[slot].heap_pos);
    return;
  }
  // Recycle the deterministic minimum: smallest (count, key).
  const uint32_t victim = heap_[0];
  Slot& slot = slots_[victim];
  index_.erase(slot.key);
  index_[key] = victim;
  slot.error = slot.count;
  slot.count += weight;
  slot.key = key;
  SiftDown(0);
}

uint64_t SpaceSavingSketch::MinCount() const {
  if (slots_.size() < capacity_ || heap_.empty()) return 0;
  return slots_[heap_[0]].count;
}

std::vector<SpaceSavingSketch::HeavyHitter> SpaceSavingSketch::TopK(
    size_t k) const {
  std::vector<HeavyHitter> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(HeavyHitter{slot.key, slot.count, slot.error});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace swim::stats
