#include "core/analysis/accumulators.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "trace/frameworks.h"
#include "trace/trace.h"

namespace swim::core {

Status CheckHorizon(const trace::JobColumns& c, size_t begin, size_t end,
                    double first_submit) {
  constexpr double kHorizonSeconds = trace::kMaxTraceHours * 3600.0;
  for (size_t i = begin; i < end; ++i) {
    const double finish = c.submit_time[i] + c.duration[i];
    if (!(finish - first_submit <= kHorizonSeconds)) {
      char when[128];
      std::snprintf(when, sizeof(when),
                    " has an event at t=%g s, more than %.0f hours "
                    "(100 years) after the first submit",
                    finish, trace::kMaxTraceHours);
      return InvalidArgumentError("job " + std::to_string(c.job_id[i]) +
                                  when);
    }
  }
  return Status::Ok();
}

SubmissionSeries SubmissionSeriesAccumulator::Series() const {
  SubmissionSeries out = series_;
  if (!started_) return out;
  const size_t hours = static_cast<size_t>(span_seconds() / 3600.0) + 1;
  if (out.jobs_per_hour.size() < hours) {
    out.jobs_per_hour.resize(hours, 0.0);
    out.bytes_per_hour.resize(hours, 0.0);
    out.task_seconds_per_hour.resize(hours, 0.0);
  }
  return out;
}

void ReaccessScan::Grow(size_t path_count) {
  last_read_.resize(path_count, -1.0);
  last_written_.resize(path_count, -1.0);
  seen_inputs_.resize(path_count, 0);
  seen_outputs_.resize(path_count, 0);
}

ReaccessFractions ReaccessScan::Fractions() const {
  ReaccessFractions result;
  result.jobs_with_paths = jobs_with_paths_;
  if (jobs_with_paths_ > 0) {
    result.input_reaccess = static_cast<double>(input_hits_) /
                            static_cast<double>(jobs_with_paths_);
    result.output_reaccess = static_cast<double>(output_hits_) /
                             static_cast<double>(jobs_with_paths_);
  }
  return result;
}

FilePopularity PopularityFromZipf(const stats::OnlineZipf& counts) {
  stats::OnlineZipf::Snapshot snapshot = counts.Fit();
  FilePopularity popularity;
  popularity.frequencies = std::move(snapshot.frequencies);
  popularity.zipf = snapshot.fit;
  popularity.distinct_files = snapshot.distinct_items;
  popularity.total_accesses = static_cast<size_t>(snapshot.total_accesses);
  return popularity;
}

uint32_t JobNameAccumulator::WordIdForName(std::string_view name) {
  // Only the short lowercased first word is hashed, never the full name.
  if (words_.empty()) words_.Reserve(64);
  std::string word = FirstWordOfJobName(name);
  if (word.empty()) word = "[identifier]";
  return words_.Intern(word);
}

void JobNameAccumulator::ObserveWord(uint32_t word_id, double total_bytes,
                                     double total_task_seconds) {
  if (word_id >= by_word_.size()) by_word_.resize(words_.size());
  Accumulator& acc = by_word_[word_id];
  acc.jobs += 1.0;
  acc.bytes += total_bytes;
  acc.task_seconds += total_task_seconds;
  total_jobs_ += 1.0;
  total_bytes_ += total_bytes;
  total_task_seconds_ += total_task_seconds;
  ++named_jobs_;
}

void JobNameAccumulator::Observe(std::string_view name, double total_bytes,
                                 double total_task_seconds) {
  if (name.empty()) return;
  ObserveWord(WordIdForName(name), total_bytes, total_task_seconds);
}

JobNameReport JobNameAccumulator::Report() const {
  JobNameReport report;
  report.named_jobs = named_jobs_;
  if (total_jobs_ == 0.0) return report;

  report.words.reserve(by_word_.size());
  for (uint32_t w = 0; w < by_word_.size(); ++w) {
    const Accumulator& acc = by_word_[w];
    NameShare share;
    share.word = std::string(words_.NameOf(w));
    share.framework = trace::ClassifyFramework(share.word);
    share.by_jobs = acc.jobs / total_jobs_;
    share.by_bytes = total_bytes_ > 0.0 ? acc.bytes / total_bytes_ : 0.0;
    share.by_task_seconds = total_task_seconds_ > 0.0
                                ? acc.task_seconds / total_task_seconds_
                                : 0.0;
    int fw = static_cast<int>(share.framework);
    report.framework_by_jobs[fw] += share.by_jobs;
    report.framework_by_bytes[fw] += share.by_bytes;
    report.framework_by_task_seconds[fw] += share.by_task_seconds;
    report.words.push_back(std::move(share));
  }
  std::sort(report.words.begin(), report.words.end(),
            [](const NameShare& a, const NameShare& b) {
              return a.by_jobs > b.by_jobs;
            });
  return report;
}

ExactStageResults ExactStages::Results() const {
  ExactStageResults results;
  results.input_popularity = PopularityFromZipf(input_popularity);
  results.output_popularity = PopularityFromZipf(output_popularity);
  results.reaccess_fractions = reaccess.Fractions();
  const SubmissionSeries hourly = series.Series();
  results.burstiness = ComputeBurstiness(hourly);
  results.correlations = ComputeSeriesCorrelations(hourly);
  results.diurnal_strength = DiurnalStrength(hourly);
  results.names = names.Report();
  return results;
}

}  // namespace swim::core
