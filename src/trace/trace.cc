#include "trace/trace.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "common/huge_pages.h"
#include "common/logging.h"

namespace swim::trace {
namespace {

/// Maps a submit time to an unsigned key that orders as `<` orders the
/// doubles, with -0.0 equal to +0.0. NaN gets a key past the infinities
/// instead of breaking the sort.
uint64_t SubmitKey(double t) {
  if (t == 0.0) t = 0.0;  // -0.0 ties with +0.0
  const uint64_t bits = std::bit_cast<uint64_t>(t);
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (bits & kSign) ? ~bits : bits | kSign;
}

/// The stable submit-time order of `n` rows whose submit times
/// `submit_at(i)` gives: row indices sorted by (SubmitKey, index), so ties
/// keep their order. Empty when the rows are already in order.
template <typename SubmitAt>
std::vector<uint32_t> StableSubmitOrder(size_t n, SubmitAt submit_at) {
  bool sorted = true;
  for (size_t i = 1; i < n && sorted; ++i) {
    sorted = !(submit_at(i) < submit_at(i - 1));
  }
  if (sorted) return {};
  SWIM_CHECK_LE(n, kMaxJobs);
  struct Key {
    uint64_t time;
    uint32_t row;
  };
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = {SubmitKey(submit_at(i)), static_cast<uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.row < b.row;
  });
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = keys[i].row;
  return order;
}

/// Renumbers the ids of `id_columns` (read row by row, the columns of a row
/// in the order given) to first-appearance order, and drops the entries of
/// `dictionary` no row references. Ids already in that order cost one pass
/// and no allocation.
void RenumberByFirstAppearance(std::initializer_list<std::vector<uint32_t>*>
                                   id_columns,
                               StringInterner& dictionary) {
  const size_t rows = (*id_columns.begin())->size();
  uint32_t next = 0;
  bool canonical = true;
  for (size_t i = 0; i < rows && canonical; ++i) {
    for (const std::vector<uint32_t>* column : id_columns) {
      const uint32_t id = (*column)[i];
      if (id == kNoStringId || id < next) continue;
      if (id != next) {
        canonical = false;
        break;
      }
      ++next;
    }
  }
  if (canonical && next == dictionary.size()) return;

  std::vector<uint32_t> remap(dictionary.size(), kNoStringId);
  std::vector<uint32_t> order;  // new id -> old id
  for (size_t i = 0; i < rows; ++i) {
    for (std::vector<uint32_t>* column : id_columns) {
      uint32_t& id = (*column)[i];
      if (id == kNoStringId) continue;
      if (remap[id] == kNoStringId) {
        remap[id] = static_cast<uint32_t>(order.size());
        order.push_back(id);
      }
      id = remap[id];
    }
  }
  StringInterner renumbered;
  renumbered.Reserve(order.size());
  for (uint32_t old_id : order) renumbered.Intern(dictionary.NameOf(old_id));
  dictionary = std::move(renumbered);
}

}  // namespace

void TraceColumns::Resize(size_t rows) {
  ForEach([rows](auto& column) {
    if (rows > column.capacity()) ReserveHugePages(column, rows);
    column.resize(rows);
  });
}

void TraceColumns::SetNumbers(size_t row, const JobRecord& job) {
  job_id[row] = job.job_id;
  submit_time[row] = job.submit_time;
  duration[row] = job.duration;
  input_bytes[row] = job.input_bytes;
  shuffle_bytes[row] = job.shuffle_bytes;
  output_bytes[row] = job.output_bytes;
  map_tasks[row] = job.map_tasks;
  reduce_tasks[row] = job.reduce_tasks;
  map_task_seconds[row] = job.map_task_seconds;
  reduce_task_seconds[row] = job.reduce_task_seconds;
}

void TraceColumns::SetJob(size_t row, const JobRecord& job,
                          StringInterner& names, StringInterner& paths) {
  SetNumbers(row, job);
  name_id[row] = InternField(job.name, names);
  input_path_id[row] = InternField(job.input_path, paths);
  output_path_id[row] = InternField(job.output_path, paths);
}

void TraceColumns::AppendRow(const JobColumns& from, size_t row) {
  job_id.push_back(from.job_id[row]);
  submit_time.push_back(from.submit_time[row]);
  duration.push_back(from.duration[row]);
  input_bytes.push_back(from.input_bytes[row]);
  shuffle_bytes.push_back(from.shuffle_bytes[row]);
  output_bytes.push_back(from.output_bytes[row]);
  map_tasks.push_back(from.map_tasks[row]);
  reduce_tasks.push_back(from.reduce_tasks[row]);
  map_task_seconds.push_back(from.map_task_seconds[row]);
  reduce_task_seconds.push_back(from.reduce_task_seconds[row]);
  name_id.push_back(from.name_id[row]);
  input_path_id.push_back(from.input_path_id[row]);
  output_path_id.push_back(from.output_path_id[row]);
}

JobColumns TraceColumns::View(const StringInterner& names,
                              const StringInterner& paths) const {
  JobColumns c;
  c.size = size();
  c.job_id = job_id.data();
  c.submit_time = submit_time.data();
  c.duration = duration.data();
  c.input_bytes = input_bytes.data();
  c.shuffle_bytes = shuffle_bytes.data();
  c.output_bytes = output_bytes.data();
  c.map_tasks = map_tasks.data();
  c.reduce_tasks = reduce_tasks.data();
  c.map_task_seconds = map_task_seconds.data();
  c.reduce_task_seconds = reduce_task_seconds.data();
  c.name_id = name_id.data();
  c.input_path_id = input_path_id.data();
  c.output_path_id = output_path_id.data();
  c.names = DictionaryView(names);
  c.paths = DictionaryView(paths);
  return c;
}

Trace::Trace(TraceMetadata metadata, TraceColumns columns,
             StringInterner names, StringInterner paths)
    : metadata_(std::move(metadata)),
      columns_(std::move(columns)),
      names_(std::move(names)),
      paths_(std::move(paths)) {
  Canonicalize();
}

void Trace::Canonicalize() {
  const std::vector<double>& submit = columns_.submit_time;
  const std::vector<uint32_t> order =
      StableSubmitOrder(size(), [&](size_t i) { return submit[i]; });
  if (!order.empty()) {
    columns_.ForEach([&](auto& column) {
      std::remove_reference_t<decltype(column)> sorted(order.size());
      for (size_t i = 0; i < order.size(); ++i) sorted[i] = column[order[i]];
      column.swap(sorted);
    });
  }
  RenumberByFirstAppearance({&columns_.name_id}, names_);
  RenumberByFirstAppearance(
      {&columns_.input_path_id, &columns_.output_path_id}, paths_);
}

JobColumns Trace::columns() const { return columns_.View(names_, paths_); }

JobRecord Trace::JobAt(size_t i) const { return RowAt(columns(), i); }

std::vector<JobRecord> Trace::jobs() const {
  const JobColumns c = columns();
  std::vector<JobRecord> rows;
  rows.reserve(c.size);
  for (size_t i = 0; i < c.size; ++i) rows.push_back(RowAt(c, i));
  return rows;
}

void Trace::AddJob(const JobRecord& job) {
  const bool in_order =
      empty() || !(job.submit_time < columns_.submit_time.back());
  const size_t row = size();
  columns_.ForEach([](auto& column) { column.emplace_back(); });
  columns_.SetJob(row, job, names_, paths_);
  // Appended in submit order, the row's new ids come last, as first
  // appearance wants; out of order, the trace is re-sorted.
  if (!in_order) Canonicalize();
}

void Trace::SetJobs(std::vector<JobRecord> jobs) {
  // Rows go in in submit order, so interning them assigns first-appearance
  // ids: the canonical form, with no re-sort or renumbering afterwards.
  const std::vector<uint32_t> order = StableSubmitOrder(
      jobs.size(), [&](size_t i) { return jobs[i].submit_time; });
  columns_ = TraceColumns();
  names_.Clear();
  paths_.Clear();
  columns_.Resize(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    columns_.SetJob(i, jobs[order.empty() ? i : order[i]], names_, paths_);
  }
}

void Trace::TakeDictionaries(StringInterner* names, StringInterner* paths) {
  *names = std::move(names_);
  *paths = std::move(paths_);
  *this = Trace();
}

double Trace::EndTime() const {
  double end = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    end = std::max(end, columns_.submit_time[i] + columns_.duration[i]);
  }
  return end;
}

double Trace::Span() const {
  return empty() ? 0.0 : EndTime() - columns_.submit_time.front();
}

}  // namespace swim::trace
