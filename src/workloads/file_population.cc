#include "workloads/file_population.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/logging.h"

namespace swim::workloads {

FilePopulationSim::AccessHistory::AccessHistory(double halflife_seconds,
                                                size_t expected_entries)
    : rate_(std::numbers::ln2 / halflife_seconds) {
  times_.reserve(expected_entries);
  path_ids_.reserve(expected_entries);
}

void FilePopulationSim::AccessHistory::Record(double time, uint32_t path_id) {
  // Outputs become available at job *finish* time, which is not monotone in
  // submission order; clamp to keep the ascending invariant binary search
  // relies on (distortion is negligible - most jobs run for seconds).
  if (!times_.empty() && time < times_.back()) time = times_.back();
  times_.push_back(time);
  path_ids_.push_back(path_id);
}

uint32_t FilePopulationSim::AccessHistory::SampleRecent(double now,
                                                        Pcg32& rng) const {
  double age = rng.NextExponential(rate_);
  double target = now - age;
  auto it = std::lower_bound(times_.begin(), times_.end(), target);
  size_t index = static_cast<size_t>(it - times_.begin());
  if (index >= times_.size()) index = times_.size() - 1;
  // Avoid handing out entries "from the future" (long-running producers
  // whose clamped record time exceeds `now`).
  while (index > 0 && times_[index] > now) --index;
  return path_ids_[index];
}

FilePopulationSim::FilePopulationSim(const FilePopulationSpec& spec,
                                     const TraceColumnAvailability& columns,
                                     Pcg32 rng, size_t expected_jobs)
    : spec_(spec),
      columns_(columns),
      rng_(rng),
      input_popularity_(spec.input_files, spec.zipf_slope),
      large_input_popularity_(std::max<size_t>(1, spec.input_files / 8),
                              spec.zipf_slope),
      output_popularity_(std::max<size_t>(1, spec.input_files / 4),
                         spec.zipf_slope),
      // One input record per job; at most one output record per job.
      input_history_(spec.recency_halflife_seconds,
                     columns.input_paths ? expected_jobs : 0),
      output_history_(spec.recency_halflife_seconds,
                      columns.output_paths ? expected_jobs : 0) {
}

uint32_t FilePopulationSim::NewPath(std::string_view prefix, uint64_t number,
                                    size_t width) {
  // snprintf's "%0*zu" without the format parsing.
  char digits[20];
  const size_t n = static_cast<size_t>(
      std::to_chars(digits, digits + sizeof(digits), number).ptr - digits);
  std::string& path = paths_.emplace_back(prefix);
  if (n < width) path.append(width - n, '0');
  path.append(digits, n);
  return static_cast<uint32_t>(paths_.size() - 1);
}

uint32_t FilePopulationSim::CachedPath(std::vector<uint32_t>& ids,
                                       std::string_view prefix, size_t number,
                                       size_t width) {
  if (number >= ids.size()) ids.resize(number + 1, kNoStringId);
  if (ids[number] == kNoStringId) ids[number] = NewPath(prefix, number, width);
  return ids[number];
}

StringInterner FilePopulationSim::TakePaths() {
  // One tight pass: interning as the paths were made would interleave
  // every insert with the draws, and cost about twice as much.
  StringInterner paths;
  paths.Reserve(paths_.size());
  for (const std::string& path : paths_) {
    SWIM_CHECK_EQ(paths.Intern(path), paths.size() - 1)
        << "duplicate path " << path << " (repeated job id?)";
  }
  paths_ = std::vector<std::string>();
  return paths;
}

FilePopulationSim::PathIds FilePopulationSim::AssignPaths(
    uint64_t job_id, double submit_time, double finish_time,
    double input_bytes, double output_bytes) {
  PathIds ids;
  if (columns_.input_paths) {
    const bool is_large_scan = input_bytes > spec_.large_job_bytes;
    double branch = rng_.NextDouble();
    // Large scans mostly hit dedicated cold files (see
    // FilePopulationSpec::large_job_bytes): shrink their re-access odds.
    if (is_large_scan && spec_.large_job_reaccess_scale < 1.0) {
      branch /= spec_.large_job_reaccess_scale;
    }
    if (is_large_scan &&
        branch < spec_.output_reaccess_fraction +
                     spec_.input_reaccess_fraction) {
      // Re-scanned big table from the dedicated large-file universe. Kept
      // disjoint from the small-job universe so the size of a popular
      // small file is never inflated by one TB-scale scan of the same path.
      ids.input = CachedPath(hot_large_input_ids_, "in/H",
                             large_input_popularity_.Sample(rng_), 6);
    } else if (branch < spec_.output_reaccess_fraction &&
               !output_history_.empty()) {
      // Chained computation: read an earlier job's output.
      ids.input = output_history_.SampleRecent(submit_time, rng_);
    } else if (branch < spec_.output_reaccess_fraction +
                            spec_.input_reaccess_fraction) {
      if (rng_.NextBernoulli(spec_.recency_bias) && !input_history_.empty()) {
        ids.input = input_history_.SampleRecent(submit_time, rng_);
      } else {
        ids.input = CachedPath(hot_input_ids_, "in/h",
                               input_popularity_.Sample(rng_), 6);
      }
    } else {
      ids.input = NewPath("in/f", fresh_inputs_++, 8);
    }
    input_history_.Record(submit_time, ids.input);
  }
  if (columns_.output_paths && output_bytes > 0.0) {
    // Large writers land in dedicated destinations (daily partition dirs),
    // never in the small-job hot-output universe - otherwise one big write
    // would inflate the recorded size of a popular small output.
    if (output_bytes <= spec_.hot_output_max_bytes &&
        rng_.NextBernoulli(0.45)) {
      ids.output = CachedPath(hot_output_ids_, "out/h",
                              output_popularity_.Sample(rng_), 6);
    } else {
      ids.output = NewPath("out/j", job_id, 0);
    }
    output_history_.Record(finish_time, ids.output);
  }
  return ids;
}

}  // namespace swim::workloads
