#include "stats/sketch/zipf_online.h"

#include <algorithm>
#include <functional>

namespace swim::stats {

OnlineZipf::Snapshot OnlineZipf::Fit() const {
  // Mirrors the batch popularity pipeline operation for operation (skip
  // zeros in id order, sort descending, exact FitZipf) so streaming and
  // batch agree to the last bit on identical access multisets.
  Snapshot snapshot;
  snapshot.frequencies.reserve(distinct_);
  for (uint64_t count : counts_) {
    if (count == 0) continue;
    snapshot.frequencies.push_back(static_cast<double>(count));
    snapshot.total_accesses += count;
  }
  snapshot.distinct_items = snapshot.frequencies.size();
  std::sort(snapshot.frequencies.begin(), snapshot.frequencies.end(),
            std::greater<double>());
  snapshot.fit = FitZipf(snapshot.frequencies);
  return snapshot;
}

}  // namespace swim::stats
