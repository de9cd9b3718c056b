#ifndef SWIM_STORAGE_ACCESS_STREAM_H_
#define SWIM_STORAGE_ACCESS_STREAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/interner.h"
#include "trace/trace.h"

namespace swim::storage {

enum class AccessKind { kRead, kWrite };

/// One HDFS file touch derived from a job: its input path is read at submit
/// time; its output path is written at finish time.
struct FileAccess {
  double time = 0.0;
  std::string path;
  double bytes = 0.0;
  AccessKind kind = AccessKind::kRead;
  uint64_t job_id = 0;
  /// Dense path id from the trace's path dictionary (kNoStringId when the
  /// access was built by hand without a trace). All hot consumers key on
  /// this instead of re-hashing `path`.
  uint32_t path_id = kNoStringId;
};

/// Chronological file-access stream for a trace. Jobs without the relevant
/// path are skipped. Each access carries the trace's interned path id.
std::vector<FileAccess> ExtractAccesses(const trace::Trace& trace);

/// Estimated size of each distinct path: the maximum bytes any single
/// access moved. (Real HDFS metadata is unavailable in per-job traces;
/// the paper's Figures 3/4 similarly infer file size from per-job I/O.)
/// The map is transparent: lookups accept std::string_view.
std::unordered_map<std::string, double, TransparentStringHash,
                   TransparentStringEq>
ComputeFileSizes(const std::vector<FileAccess>& accesses);

}  // namespace swim::storage

#endif  // SWIM_STORAGE_ACCESS_STREAM_H_
