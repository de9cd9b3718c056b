// Test helpers for trace::Trace: a row-level reference for its canonical id
// columns, and a per-record validator.
#ifndef SWIM_TESTS_TRACE_ORACLE_H_
#define SWIM_TESTS_TRACE_ORACLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "trace/trace.h"

namespace swim::oracle {

/// A trace's id columns and dictionaries, with owned strings.
struct TraceIds {
  std::vector<uint32_t> name_id;
  std::vector<uint32_t> input_path_id;
  std::vector<uint32_t> output_path_id;
  std::vector<std::string> names;
  std::vector<std::string> paths;

  friend bool operator==(const TraceIds&, const TraceIds&) = default;
};

/// The reference: one serial first-appearance interning pass over `rows`,
/// already in submit order, input path before output path per row; an
/// empty string is an absent field.
inline TraceIds FirstAppearanceIds(const std::vector<trace::JobRecord>& rows) {
  TraceIds ids;
  FlatHashMap<std::string, uint32_t> name_index;
  FlatHashMap<std::string, uint32_t> path_index;
  auto intern = [](const std::string& text,
                   FlatHashMap<std::string, uint32_t>& index,
                   std::vector<std::string>& dictionary) {
    if (text.empty()) return kNoStringId;
    auto [it, inserted] =
        index.TryEmplace(text, static_cast<uint32_t>(dictionary.size()));
    if (inserted) dictionary.push_back(text);
    return it->second;
  };
  for (const trace::JobRecord& job : rows) {
    ids.name_id.push_back(intern(job.name, name_index, ids.names));
    ids.input_path_id.push_back(intern(job.input_path, path_index, ids.paths));
    ids.output_path_id.push_back(
        intern(job.output_path, path_index, ids.paths));
  }
  return ids;
}

/// What `t` holds, in TraceIds' shape.
inline TraceIds IdsOf(const trace::Trace& t) {
  const trace::JobColumns c = t.columns();
  TraceIds ids;
  ids.name_id.assign(c.name_id, c.name_id + c.size);
  ids.input_path_id.assign(c.input_path_id, c.input_path_id + c.size);
  ids.output_path_id.assign(c.output_path_id, c.output_path_id + c.size);
  for (uint32_t id = 0; id < t.names().size(); ++id) {
    ids.names.emplace_back(t.names().NameOf(id));
  }
  for (uint32_t id = 0; id < t.paths().size(); ++id) {
    ids.paths.emplace_back(t.paths().NameOf(id));
  }
  return ids;
}

/// Checks every job against ValidateJobRecord; the first violation.
inline Status ValidateTrace(const trace::Trace& t) {
  for (size_t i = 0; i < t.size(); ++i) {
    const trace::JobRecord job = t.JobAt(i);
    const std::string violation = trace::ValidateJobRecord(job);
    if (!violation.empty()) {
      return InvalidArgumentError("job " + std::to_string(job.job_id) + ": " +
                                  violation);
    }
  }
  return Status::Ok();
}

}  // namespace swim::oracle

#endif  // SWIM_TESTS_TRACE_ORACLE_H_
