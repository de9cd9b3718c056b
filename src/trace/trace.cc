#include "trace/trace.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"
#include "trace/columnar.h"

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

/// std::stable_sort by submit_time without moving records in the sort:
/// sorts (key, index) pairs, whose index breaks ties as stability does,
/// then moves each record once along the cycles of the permutation.
void StableSortBySubmit(std::vector<JobRecord>& jobs) {
  SWIM_CHECK_LE(jobs.size(), kMaxJobs);
  struct Key {
    uint64_t time;
    uint32_t index;
  };
  std::vector<Key> keys(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    keys[i] = {SubmitKey(jobs[i].submit_time), static_cast<uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.index < b.index;
  });
  // Slot `to` takes the record at keys[to].index; a placed slot is marked
  // by pointing its key at itself.
  for (size_t start = 0; start < jobs.size(); ++start) {
    if (keys[start].index == start) continue;
    JobRecord held = std::move(jobs[start]);
    size_t to = start;
    for (;;) {
      const size_t from = keys[to].index;
      keys[to].index = static_cast<uint32_t>(to);
      if (from == start) {
        jobs[to] = std::move(held);
        break;
      }
      jobs[to] = std::move(jobs[from]);
      to = from;
    }
  }
}

}  // namespace

Trace Trace::FromColumns(std::shared_ptr<const ColumnarTraceView> view) {
  Trace trace(view->metadata());
  trace.column_rows_ = view->job_count();
  trace.columnar_ = std::move(view);
  trace.rows_built_.store(false, std::memory_order_relaxed);
  return trace;
}

Trace::Trace(const Trace& other) { *this = other; }

Trace& Trace::operator=(const Trace& other) {
  if (this == &other) return *this;
  // Lock the source so a concurrent reader-triggered lazy build on `other`
  // cannot move jobs_ under us. A column-backed source shares its columns
  // and its rows are rebuilt on demand; index state is never copied.
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = other.metadata_;
  columnar_ = other.columnar_;
  column_rows_ = other.column_rows_;
  if (columnar_ != nullptr) {
    jobs_.clear();
    rows_built_.store(false, std::memory_order_relaxed);
  } else {
    jobs_ = other.jobs_;
    rows_built_.store(true, std::memory_order_relaxed);
  }
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  ClearIndexes();
  return *this;
}

Trace::Trace(Trace&& other) noexcept { *this = std::move(other); }

Trace& Trace::operator=(Trace&& other) noexcept {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = std::move(other.metadata_);
  jobs_ = std::move(other.jobs_);
  columnar_ = std::move(other.columnar_);
  column_rows_ = other.column_rows_;
  rows_built_.store(other.rows_built_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  ClearIndexes();
  other.jobs_.clear();
  other.rows_built_.store(true, std::memory_order_relaxed);
  other.sorted_.store(true, std::memory_order_relaxed);
  other.ClearIndexes();
  return *this;
}

void Trace::ClearIndexes() {
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
  path_interner_.Clear();
  name_interner_.Clear();
  input_path_ids_.clear();
  output_path_ids_.clear();
  name_ids_.clear();
}

JobColumns Trace::columns() const {
  if (columnar_ != nullptr) return columnar_->columns();
  EnsurePathIndex();
  EnsureNameIndex();
  JobColumns c;
  c.size = jobs_.size();
  c.names = DictionaryView(name_interner_);
  c.paths = DictionaryView(path_interner_);
  if (jobs_.empty()) return c;
  constexpr size_t kRow = sizeof(JobRecord);
  const JobRecord& first = jobs_.front();
  c.job_id = StridedColumn<uint64_t>(&first.job_id, kRow);
  c.submit_time = StridedColumn<double>(&first.submit_time, kRow);
  c.duration = StridedColumn<double>(&first.duration, kRow);
  c.input_bytes = StridedColumn<double>(&first.input_bytes, kRow);
  c.shuffle_bytes = StridedColumn<double>(&first.shuffle_bytes, kRow);
  c.output_bytes = StridedColumn<double>(&first.output_bytes, kRow);
  c.map_tasks = StridedColumn<int64_t>(&first.map_tasks, kRow);
  c.reduce_tasks = StridedColumn<int64_t>(&first.reduce_tasks, kRow);
  c.map_task_seconds = StridedColumn<double>(&first.map_task_seconds, kRow);
  c.reduce_task_seconds =
      StridedColumn<double>(&first.reduce_task_seconds, kRow);
  c.name_id = StridedColumn<uint32_t>(name_ids_.data(), sizeof(uint32_t));
  c.input_path_id =
      StridedColumn<uint32_t>(input_path_ids_.data(), sizeof(uint32_t));
  c.output_path_id =
      StridedColumn<uint32_t>(output_path_ids_.data(), sizeof(uint32_t));
  return c;
}

void Trace::DetachColumns() {
  if (columnar_ == nullptr) return;
  EnsureRows();
  columnar_.reset();
}

void Trace::AddJob(JobRecord job) {
  DetachColumns();
  if (!jobs_.empty() && job.submit_time < jobs_.back().submit_time) {
    sorted_.store(false, std::memory_order_relaxed);
  }
  jobs_.push_back(std::move(job));
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
}

void Trace::SetJobs(std::vector<JobRecord> jobs) {
  columnar_.reset();
  rows_built_.store(true, std::memory_order_relaxed);
  jobs_ = std::move(jobs);
  sorted_.store(false, std::memory_order_relaxed);
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
  EnsureSorted();
}

void Trace::MaterializeRows() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (rows_built_.load(std::memory_order_relaxed)) return;
  jobs_ = BuildRows(columnar_->columns());
  rows_built_.store(true, std::memory_order_release);
}

void Trace::EnsureSorted() const {
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  SortLocked();
}

void Trace::SortLocked() const {
  if (sorted_.load(std::memory_order_relaxed)) return;
  auto by_submit = [](const JobRecord& a, const JobRecord& b) {
    return a.submit_time < b.submit_time;
  };
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), by_submit)) {
    StableSortBySubmit(jobs_);
  }
  path_indexed_.store(false, std::memory_order_relaxed);  // ids follow order
  name_indexed_.store(false, std::memory_order_relaxed);
  sorted_.store(true, std::memory_order_release);
}

void Trace::EnsurePathIndex() const {
  if (path_indexed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (path_indexed_.load(std::memory_order_relaxed)) return;
  path_interner_.Clear();
  input_path_ids_.clear();
  output_path_ids_.clear();
  if (columnar_ != nullptr) {
    // Canonical columns: interning the dictionary in id order reproduces
    // the ids, and the id columns are the index.
    const JobColumns c = columnar_->columns();
    path_interner_.Reserve(c.paths.size());
    for (uint32_t id = 0; id < c.paths.size(); ++id) {
      path_interner_.Intern(c.paths[id]);
    }
    input_path_ids_.resize(c.size);
    output_path_ids_.resize(c.size);
    for (size_t i = 0; i < c.size; ++i) {
      input_path_ids_[i] = c.input_path_id[i];
      output_path_ids_[i] = c.output_path_id[i];
    }
    path_indexed_.store(true, std::memory_order_release);
    return;
  }
  SortLocked();
  input_path_ids_.reserve(jobs_.size());
  output_path_ids_.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    input_path_ids_.push_back(job.input_path.empty()
                                  ? kNoStringId
                                  : path_interner_.Intern(job.input_path));
    output_path_ids_.push_back(job.output_path.empty()
                                   ? kNoStringId
                                   : path_interner_.Intern(job.output_path));
  }
  path_indexed_.store(true, std::memory_order_release);
}

void Trace::EnsureNameIndex() const {
  if (name_indexed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (name_indexed_.load(std::memory_order_relaxed)) return;
  name_interner_.Clear();
  name_ids_.clear();
  if (columnar_ != nullptr) {
    const JobColumns c = columnar_->columns();
    name_interner_.Reserve(c.names.size());
    for (uint32_t id = 0; id < c.names.size(); ++id) {
      name_interner_.Intern(c.names[id]);
    }
    name_ids_.resize(c.size);
    for (size_t i = 0; i < c.size; ++i) name_ids_[i] = c.name_id[i];
    name_indexed_.store(true, std::memory_order_release);
    return;
  }
  SortLocked();
  name_ids_.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    name_ids_.push_back(job.name.empty() ? kNoStringId
                                         : name_interner_.Intern(job.name));
  }
  name_indexed_.store(true, std::memory_order_release);
}

Status Trace::Validate() const {
  for (const auto& job : jobs()) {
    std::string violation = ValidateJobRecord(job);
    if (!violation.empty()) {
      return InvalidArgumentError("job " + std::to_string(job.job_id) + ": " +
                                  violation);
    }
  }
  return Status::Ok();
}

double Trace::StartTime() const {
  if (empty()) return 0.0;
  EnsureSorted();
  return jobs().front().submit_time;
}

double Trace::EndTime() const {
  if (empty()) return 0.0;
  EnsureSorted();
  double end = 0.0;
  for (const auto& job : jobs()) end = std::max(end, job.FinishTime());
  return end;
}

double Trace::Span() const { return EndTime() - StartTime(); }

}  // namespace swim::trace
