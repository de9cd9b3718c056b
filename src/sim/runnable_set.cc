#include "sim/runnable_set.h"

#include <algorithm>

namespace swim::sim {

void RunnableSet::Insert(size_t job) {
  ArenaVector<size_t>& heap = TierOf(job);
  heap.push_back(job);
  SiftUp(heap, heap.size() - 1);
  peak_size_ = std::max(peak_size_, size());
}

void RunnableSet::Erase(size_t job) {
  ArenaVector<size_t>& heap = TierOf(job);
  const size_t hole = pos_[job];
  pos_[job] = kAbsent;
  const size_t last = heap.back();
  heap.pop_back();
  if (hole == heap.size()) return;  // the job was the last element
  heap[hole] = last;
  pos_[last] = hole;
  if (hole > 0 && Before(last, heap[(hole - 1) / 2])) {
    SiftUp(heap, hole);
  } else {
    SiftDown(heap, hole);
  }
}

// Both sifts move a hole instead of swapping: each displaced element is
// written once, with its position.
void RunnableSet::SiftUp(ArenaVector<size_t>& heap, size_t hole) {
  const size_t job = heap[hole];
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Before(job, heap[parent])) break;
    heap[hole] = heap[parent];
    pos_[heap[hole]] = hole;
    hole = parent;
  }
  heap[hole] = job;
  pos_[job] = hole;
}

void RunnableSet::SiftDown(ArenaVector<size_t>& heap, size_t hole) {
  const size_t job = heap[hole];
  const size_t n = heap.size();
  for (size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Before(heap[child + 1], heap[child])) ++child;
    if (!Before(heap[child], job)) break;
    heap[hole] = heap[child];
    pos_[heap[hole]] = hole;
    hole = child;
  }
  heap[hole] = job;
  pos_[job] = hole;
}

}  // namespace swim::sim
