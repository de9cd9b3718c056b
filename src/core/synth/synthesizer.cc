#include "core/synth/synthesizer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "stats/radix_sort.h"
#include "stats/sampling.h"
#include "workloads/file_population.h"
#include "workloads/name_generator.h"

namespace swim::core {
namespace {

/// Independent per-dimension lognormal fit (the naive baseline).
struct LognormalFit {
  double mu = 0.0;     // mean of log(1+x)
  double sigma = 0.0;  // stddev of log(1+x)
  double zero_fraction = 0.0;

  double Sample(Pcg32& rng) const {
    if (rng.NextBernoulli(zero_fraction)) return 0.0;
    return std::max(0.0, std::exp(mu + sigma * rng.NextGaussian()) - 1.0);
  }
};

LognormalFit FitLognormal(const std::vector<double>& values) {
  LognormalFit fit;
  std::vector<double> logs;
  logs.reserve(values.size());
  size_t zeros = 0;
  for (double v : values) {
    if (v <= 0.0) {
      ++zeros;
    } else {
      logs.push_back(std::log(1.0 + v));
    }
  }
  fit.zero_fraction = values.empty()
                          ? 0.0
                          : static_cast<double>(zeros) /
                                static_cast<double>(values.size());
  if (logs.empty()) return fit;
  double sum = 0.0;
  for (double l : logs) sum += l;
  fit.mu = sum / static_cast<double>(logs.size());
  double var = 0.0;
  for (double l : logs) var += (l - fit.mu) * (l - fit.mu);
  fit.sigma = std::sqrt(var / static_cast<double>(logs.size()));
  return fit;
}

/// The jittered dimensions, in the order their draws are made: the
/// exemplar fields and the columns they fill.
constexpr std::array<double trace::JobRecord::*, 6> kJitteredFields = {
    &trace::JobRecord::input_bytes,      &trace::JobRecord::shuffle_bytes,
    &trace::JobRecord::output_bytes,     &trace::JobRecord::duration,
    &trace::JobRecord::map_task_seconds, &trace::JobRecord::reduce_task_seconds,
};
const std::array<std::vector<double> trace::TraceColumns::*,
                 kJitteredFields.size()>
    kJitteredColumns = {
        &trace::TraceColumns::input_bytes,
        &trace::TraceColumns::shuffle_bytes,
        &trace::TraceColumns::output_bytes,
        &trace::TraceColumns::duration,
        &trace::TraceColumns::map_task_seconds,
        &trace::TraceColumns::reduce_task_seconds,
};
/// Exemplar mask bit: the job gets a decorated name (bits below it: the
/// field of kJitteredFields at that index is jittered).
constexpr uint8_t kNamedBit = 1u << kJitteredFields.size();

/// Jobs whose draws are buffered at once (~6 MB of uniforms).
constexpr size_t kDrawBlockJobs = size_t{1} << 16;
/// Jobs per ParallelFor chunk of the column fill.
constexpr size_t kFillGrain = 4096;

/// What job_rng drew for one job: the exemplar and, for each jittered
/// field, the uniforms of its Gaussian.
struct JobDraws {
  size_t exemplar;
  std::array<Pcg32::GaussianDraw, kJitteredFields.size()> jitter;
};

/// Empirical rows: each job resamples an exemplar and jitters its positive
/// dimensions by exp(sigma * N(0,1) - sigma^2 / 2). All job_rng draws are
/// made by one serial pass, job by job: the exemplar index, the Gaussian
/// uniforms of each jittered field, the DecorateJobName draws (the name is
/// interned there, in job order). This order is part of the output (the
/// golden digests pin it). A ParallelFor then turns the buffered uniforms
/// into column values, so they are identical at any lane count.
void FillEmpiricalRows(const WorkloadModel& model, double sigma,
                       const std::vector<double>& submit_times, Pcg32& job_rng,
                       trace::TraceColumns& jobs, StringInterner& names) {
  const std::vector<trace::JobRecord>& exemplars = model.exemplars;
  // Which draws an exemplar's job makes, so the serial pass never reads
  // the exemplar rows. Jitter draws nothing for a zero value or sigma.
  std::vector<uint8_t> masks(exemplars.size(), 0);
  for (size_t e = 0; e < exemplars.size(); ++e) {
    for (size_t f = 0; f < kJitteredFields.size(); ++f) {
      if (sigma > 0.0 && exemplars[e].*kJitteredFields[f] > 0.0) {
        masks[e] |= static_cast<uint8_t>(1u << f);
      }
    }
    if (model.columns.names && !exemplars[e].name.empty()) {
      masks[e] |= kNamedBit;
    }
  }

  const size_t job_count = jobs.size();
  std::vector<JobDraws> draws(std::min(kDrawBlockJobs, job_count));
  for (size_t block = 0; block < job_count; block += kDrawBlockJobs) {
    const size_t block_end = std::min(job_count, block + kDrawBlockJobs);
    for (size_t i = block; i < block_end; ++i) {
      JobDraws& d = draws[i - block];
      d.exemplar = job_rng.NextBounded(exemplars.size());
      const uint8_t mask = masks[d.exemplar];
      for (size_t f = 0; f < kJitteredFields.size(); ++f) {
        if (mask & (1u << f)) d.jitter[f] = job_rng.NextGaussianDraw();
      }
      jobs.name_id[i] =
          (mask & kNamedBit)
              ? trace::InternField(
                    workloads::DecorateJobName(exemplars[d.exemplar].name,
                                               i + 1, job_rng),
                    names)
              : kNoStringId;
    }
    ParallelFor(block, block_end, kFillGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const JobDraws& d = draws[i - block];
        const trace::JobRecord& exemplar = exemplars[d.exemplar];
        const uint8_t mask = masks[d.exemplar];
        jobs.job_id[i] = i + 1;
        jobs.submit_time[i] = submit_times[i];
        for (size_t f = 0; f < kJitteredFields.size(); ++f) {
          const double value = exemplar.*kJitteredFields[f];
          (jobs.*kJitteredColumns[f])[i] =
              (mask & (1u << f))
                  ? value * std::exp(sigma * Pcg32::GaussianFromDraw(
                                                 d.jitter[f]) -
                                     sigma * sigma / 2.0)
                  : value;
        }
        jobs.map_tasks[i] = exemplar.map_tasks;
        jobs.reduce_tasks[i] = exemplar.reduce_tasks;
      }
    });
  }
}

/// Parametric rows: independent per-dimension lognormal fits, drawn
/// serially.
void FillParametricRows(const WorkloadModel& model,
                        const std::vector<double>& submit_times,
                        Pcg32& job_rng, trace::TraceColumns& jobs) {
  std::array<LognormalFit, kJitteredFields.size()> fits;
  std::vector<double> values(model.exemplars.size());
  for (size_t f = 0; f < kJitteredFields.size(); ++f) {
    for (size_t e = 0; e < model.exemplars.size(); ++e) {
      values[e] = model.exemplars[e].*kJitteredFields[f];
    }
    fits[f] = FitLognormal(values);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs.job_id[i] = i + 1;
    jobs.submit_time[i] = submit_times[i];
    for (size_t f = 0; f < kJitteredFields.size(); ++f) {
      (jobs.*kJitteredColumns[f])[i] = fits[f].Sample(job_rng);
    }
    double typical_task = job_rng.NextDouble(20.0, 60.0);
    jobs.map_tasks[i] = std::max<int64_t>(
        1, static_cast<int64_t>(jobs.map_task_seconds[i] / typical_task));
    jobs.reduce_tasks[i] =
        jobs.reduce_task_seconds[i] > 0.0
            ? std::max<int64_t>(1, static_cast<int64_t>(
                                       jobs.reduce_task_seconds[i] /
                                       typical_task))
            : 0;
    jobs.name_id[i] = kNoStringId;
  }
}

}  // namespace

StatusOr<trace::Trace> SynthesizeTrace(const WorkloadModel& model,
                                       const SynthesisOptions& options) {
  if (model.exemplars.empty()) {
    return InvalidArgumentError("model has no exemplars");
  }
  if (model.span_seconds <= 0.0) {
    return InvalidArgumentError("model span must be positive");
  }
  if (!std::isfinite(options.jitter_sigma) || options.jitter_sigma < 0.0) {
    return InvalidArgumentError("jitter_sigma must be finite and >= 0");
  }
  if (!std::isfinite(options.span_seconds) || options.span_seconds < 0.0) {
    return InvalidArgumentError("span_seconds must be finite and >= 0");
  }
  const size_t job_count =
      options.job_count > 0 ? options.job_count : model.total_jobs;
  if (job_count > kMaxJobs) {
    return InvalidArgumentError("job count " + std::to_string(job_count) +
                                " exceeds " + std::to_string(kMaxJobs));
  }
  const double span = options.span_seconds > 0.0 ? options.span_seconds
                                                 : model.span_seconds;
  const size_t hours =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(span / 3600.0)));

  Pcg32 master(options.seed, /*stream=*/0x5f17);
  Pcg32 arrival_rng = master.Fork();
  Pcg32 job_rng = master.Fork();
  Pcg32 file_rng = master.Fork();

  // Arrival envelope resampled (nearest neighbor) onto the target span.
  std::vector<double> envelope(hours, 1.0);
  if (!model.hourly_envelope.empty()) {
    for (size_t h = 0; h < hours; ++h) {
      size_t src = h * model.hourly_envelope.size() / hours;
      envelope[h] = std::max(model.hourly_envelope[src], 0.0);
    }
    double total = 0.0;
    for (double e : envelope) total += e;
    if (total <= 0.0) envelope.assign(hours, 1.0);
  }
  stats::DiscreteSampler hour_sampler(envelope);

  std::vector<double> submit_times(job_count);
  for (size_t i = 0; i < job_count; ++i) {
    double hour = static_cast<double>(hour_sampler.Sample(arrival_rng));
    submit_times[i] = (hour + arrival_rng.NextDouble()) * 3600.0;
  }
  // Non-negative, so the radix order equals std::sort's.
  stats::RadixSortDoubles(&submit_times);

  trace::TraceColumns jobs;
  jobs.Resize(job_count);
  StringInterner names;
  if (options.method == SynthesisMethod::kEmpirical) {
    FillEmpiricalRows(model, options.jitter_sigma, submit_times, job_rng,
                      jobs, names);
  } else {
    FillParametricRows(model, submit_times, job_rng, jobs);
  }
  // Paths draw from their own stream and read earlier jobs' paths, so
  // they are assigned serially in submit order.
  workloads::FilePopulationSim files(model.file_model, model.columns,
                                     file_rng, job_count);
  for (size_t i = 0; i < job_count; ++i) {
    const workloads::FilePopulationSim::PathIds paths = files.AssignPaths(
        jobs.job_id[i], jobs.submit_time[i],
        jobs.submit_time[i] + jobs.duration[i], jobs.input_bytes[i],
        jobs.output_bytes[i]);
    jobs.input_path_id[i] = paths.input;
    jobs.output_path_id[i] = paths.output;
  }

  trace::TraceMetadata metadata;
  metadata.name = model.source_name.empty() ? "synthetic"
                                            : model.source_name + "-synth";
  metadata.has_names = model.columns.names;
  metadata.has_input_paths = model.columns.input_paths;
  metadata.has_output_paths = model.columns.output_paths;
  return trace::Trace(std::move(metadata), std::move(jobs), std::move(names),
                      files.TakePaths());
}

}  // namespace swim::core
