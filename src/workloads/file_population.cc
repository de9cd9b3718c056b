#include "workloads/file_population.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>

namespace swim::workloads {
namespace {

/// `prefix` then `value` in decimal, zero-padded to at least `width`
/// digits: snprintf's "%0*zu" without the format parsing.
std::string NumberedPath(std::string_view prefix, uint64_t value,
                         size_t width) {
  char digits[20];
  const size_t n = static_cast<size_t>(
      std::to_chars(digits, digits + sizeof(digits), value).ptr - digits);
  std::string path;
  path.reserve(prefix.size() + std::max(n, width));
  path.append(prefix);
  if (n < width) path.append(width - n, '0');
  path.append(digits, n);
  return path;
}

std::string HotInputPath(size_t rank) { return NumberedPath("in/h", rank, 6); }

// Hot universe for large scans (big warehouse tables, re-read daily).
// Kept disjoint from the small-job universe so the size of a popular small
// file is never inflated by one TB-scale scan of the same path.
std::string HotLargeInputPath(size_t rank) {
  return NumberedPath("in/H", rank, 6);
}

std::string HotOutputPath(size_t rank) {
  return NumberedPath("out/h", rank, 6);
}

}  // namespace

FilePopulationSim::AccessHistory::AccessHistory(double halflife_seconds,
                                                size_t expected_entries)
    : rate_(std::numbers::ln2 / halflife_seconds) {
  times_.reserve(expected_entries);
  paths_.reserve(expected_entries);
}

void FilePopulationSim::AccessHistory::Record(double time,
                                              const std::string& path) {
  // Outputs become available at job *finish* time, which is not monotone in
  // submission order; clamp to keep the ascending invariant binary search
  // relies on (distortion is negligible - most jobs run for seconds).
  if (!times_.empty() && time < times_.back()) time = times_.back();
  times_.push_back(time);
  paths_.push_back(path);
}

const std::string& FilePopulationSim::AccessHistory::SampleRecent(
    double now, Pcg32& rng) const {
  double age = rng.NextExponential(rate_);
  double target = now - age;
  auto it = std::lower_bound(times_.begin(), times_.end(), target);
  size_t index = static_cast<size_t>(it - times_.begin());
  if (index >= times_.size()) index = times_.size() - 1;
  // Avoid handing out entries "from the future" (long-running producers
  // whose clamped record time exceeds `now`).
  while (index > 0 && times_[index] > now) --index;
  return paths_[index];
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
                      columns.output_paths ? expected_jobs : 0) {}

void FilePopulationSim::AssignPaths(trace::JobRecord& job) {
  if (columns_.input_paths) {
    const bool is_large_scan = job.input_bytes > spec_.large_job_bytes;
    double branch = rng_.NextDouble();
    // Large scans mostly hit dedicated cold files (see
    // FilePopulationSpec::large_job_bytes): shrink their re-access odds.
    if (is_large_scan && spec_.large_job_reaccess_scale < 1.0) {
      branch /= spec_.large_job_reaccess_scale;
    }
    if (is_large_scan &&
        branch < spec_.output_reaccess_fraction +
                     spec_.input_reaccess_fraction) {
      // Re-scanned big table from the dedicated large-file universe.
      job.input_path = HotLargeInputPath(large_input_popularity_.Sample(rng_));
    } else if (branch < spec_.output_reaccess_fraction &&
               !output_history_.empty()) {
      // Chained computation: read an earlier job's output.
      job.input_path = output_history_.SampleRecent(job.submit_time, rng_);
    } else if (branch < spec_.output_reaccess_fraction +
                            spec_.input_reaccess_fraction) {
      if (rng_.NextBernoulli(spec_.recency_bias) && !input_history_.empty()) {
        job.input_path = input_history_.SampleRecent(job.submit_time, rng_);
      } else {
        job.input_path = HotInputPath(input_popularity_.Sample(rng_));
      }
    } else {
      job.input_path = NumberedPath("in/f", fresh_inputs_++, 8);
    }
    input_history_.Record(job.submit_time, job.input_path);
  }
  if (columns_.output_paths && job.output_bytes > 0.0) {
    // Large writers land in dedicated destinations (daily partition dirs),
    // never in the small-job hot-output universe - otherwise one big write
    // would inflate the recorded size of a popular small output.
    if (job.output_bytes <= spec_.hot_output_max_bytes &&
        rng_.NextBernoulli(0.45)) {
      job.output_path = HotOutputPath(output_popularity_.Sample(rng_));
    } else {
      job.output_path = NumberedPath("out/j", job.job_id, 0);
    }
    output_history_.Record(job.FinishTime(), job.output_path);
  }
}

}  // namespace swim::workloads
