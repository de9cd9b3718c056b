#ifndef SWIM_STATS_SKETCH_ZIPF_ONLINE_H_
#define SWIM_STATS_SKETCH_ZIPF_ONLINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/zipf.h"

namespace swim::stats {

/// Online Zipf popularity fit over dense ids: O(1) per access, with the
/// slope re-fit on demand from the distinct-item counts. The snapshot path
/// performs the exact same operations as the batch popularity analysis
/// (nonzero counts in id order, sorted descending, FitZipf), so a snapshot
/// after n accesses is byte-identical to a batch fit of those n accesses —
/// "no full-column sorts" holds because only the distinct counts (file
/// dictionary sized, not stream sized) are ever sorted.
///
/// Deterministic; memory O(max id seen). Not thread-safe.
class OnlineZipf {
 public:
  OnlineZipf() = default;

  /// Observes one access of item `id`, growing the dense table as needed.
  void Add(uint32_t id, uint64_t weight = 1) {
    if (id >= counts_.size()) counts_.resize(id + 1, 0);
    if (counts_[id] == 0) ++distinct_;
    counts_[id] += weight;
    total_ += weight;
  }

  struct Snapshot {
    std::vector<double> frequencies;  // descending access counts
    ZipfFitResult fit;
    size_t distinct_items = 0;
    uint64_t total_accesses = 0;
  };

  /// Fits the current counts: O(distinct log distinct).
  Snapshot Fit() const;

  size_t distinct() const { return distinct_; }
  uint64_t total() const { return total_; }
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  std::vector<uint64_t> counts_;  // id -> access count
  size_t distinct_ = 0;
  uint64_t total_ = 0;
};

}  // namespace swim::stats

#endif  // SWIM_STATS_SKETCH_ZIPF_ONLINE_H_
