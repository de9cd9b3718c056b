#include "storage/access_stream.h"

#include <algorithm>

namespace swim::storage {

std::vector<FileAccess> ExtractAccesses(const trace::Trace& trace) {
  const trace::JobColumns c = trace.columns();
  std::vector<FileAccess> accesses;
  accesses.reserve(c.size * 2);
  for (size_t i = 0; i < c.size; ++i) {
    if (c.input_path_id[i] != kNoStringId) {
      accesses.push_back({c.submit_time[i],
                          std::string(c.paths[c.input_path_id[i]]),
                          c.input_bytes[i], AccessKind::kRead, c.job_id[i],
                          c.input_path_id[i]});
    }
    if (c.output_path_id[i] != kNoStringId) {
      accesses.push_back({c.submit_time[i] + c.duration[i],
                          std::string(c.paths[c.output_path_id[i]]),
                          c.output_bytes[i], AccessKind::kWrite, c.job_id[i],
                          c.output_path_id[i]});
    }
  }
  std::stable_sort(accesses.begin(), accesses.end(),
                   [](const FileAccess& a, const FileAccess& b) {
                     return a.time < b.time;
                   });
  return accesses;
}

std::unordered_map<std::string, double, TransparentStringHash,
                   TransparentStringEq>
ComputeFileSizes(const std::vector<FileAccess>& accesses) {
  std::unordered_map<std::string, double, TransparentStringHash,
                     TransparentStringEq>
      sizes;
  sizes.reserve(accesses.size());
  for (const auto& access : accesses) {
    double& size = sizes[access.path];
    size = std::max(size, access.bytes);
  }
  return sizes;
}

}  // namespace swim::storage
