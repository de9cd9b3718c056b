#include "workloads/trace_generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "stats/sampling.h"
#include "workloads/file_population.h"
#include "workloads/name_generator.h"

namespace swim::workloads {
namespace {

/// Hourly arrival-rate envelope: diurnal x weekly x AR(1) lognormal burst.
std::vector<double> BuildRateEnvelope(const ArrivalSpec& arrival,
                                      size_t hours, Pcg32& rng) {
  std::vector<double> rate(hours, 1.0);
  double burst_state = 0.0;
  const double rho = arrival.burst_autocorrelation;
  const double innovation_sigma =
      arrival.burst_log_sigma * std::sqrt(1.0 - rho * rho);
  for (size_t h = 0; h < hours; ++h) {
    // Diurnal peak in the local "afternoon" (hour 14 of each day).
    double day_phase = 2.0 * std::numbers::pi *
                       (static_cast<double>(h % 24) - 14.0) / 24.0;
    double diurnal = 1.0 + arrival.diurnal_strength * std::cos(day_phase);
    size_t day_of_week = (h / 24) % 7;
    double weekly = (day_of_week >= 5) ? arrival.weekend_factor : 1.0;
    burst_state = rho * burst_state + innovation_sigma * rng.NextGaussian();
    double burst = std::exp(burst_state);
    rate[h] = diurnal * weekly * burst;
  }
  return rate;
}

/// A job dimension sampled around its class median, and the share of the
/// class's log-sigma it spreads by. Durations spread less than sizes: a
/// class is defined by its latency envelope (e.g. "small jobs" finish
/// interactively).
struct Dimension {
  double JobTypeSpec::*median;
  std::vector<double> trace::TraceColumns::*column;
  double sigma_scale;
};
/// The dimensions in the order their dims_rng draws are made.
const std::array<Dimension, 6> kDimensions = {{
    {&JobTypeSpec::input_bytes, &trace::TraceColumns::input_bytes, 1.0},
    {&JobTypeSpec::shuffle_bytes, &trace::TraceColumns::shuffle_bytes, 1.0},
    {&JobTypeSpec::output_bytes, &trace::TraceColumns::output_bytes, 1.0},
    {&JobTypeSpec::map_task_seconds, &trace::TraceColumns::map_task_seconds,
     1.0},
    {&JobTypeSpec::reduce_task_seconds,
     &trace::TraceColumns::reduce_task_seconds, 1.0},
    {&JobTypeSpec::duration_seconds, &trace::TraceColumns::duration, 0.5},
}};

/// Jobs whose dims_rng draws are buffered at once (~8 MB).
constexpr size_t kDrawBlockJobs = size_t{1} << 16;
/// Jobs per ParallelFor chunk of the column fill.
constexpr size_t kFillGrain = 4096;

/// What dims_rng drew for one job: the shared factor's Gaussian, the
/// noise Gaussian of each dimension with a positive median, and the
/// typical-task uniform.
struct JobDraws {
  Pcg32::GaussianDraw shared;
  std::array<Pcg32::GaussianDraw, kDimensions.size()> noise;
  double typical_task_u;
};

/// One dimension sampled around its (positive) class median. `shared` is
/// the per-job common factor that induces correlation between data size
/// and compute time; `noise` is the dimension's independent deviate.
double SampleDimension(double median, double log_sigma, double shared,
                       double noise) {
  // shared^2-weight + independent^2-weight = 1 keeps the marginal sigma.
  constexpr double kSharedLoading = 0.8;
  constexpr double kIndependentLoading = 0.6;
  double z = kSharedLoading * shared + kIndependentLoading * noise;
  return median * std::exp(log_sigma * z);
}

}  // namespace

StatusOr<trace::Trace> GenerateTrace(const WorkloadSpec& spec,
                                     const GeneratorOptions& options) {
  SWIM_RETURN_IF_ERROR(ValidateSpec(spec));

  const size_t total_jobs = options.job_count_override > 0
                                ? options.job_count_override
                                : spec.total_jobs;
  if (total_jobs > trace::kMaxJobs) {
    return InvalidArgumentError("job count " + std::to_string(total_jobs) +
                                " exceeds " + std::to_string(trace::kMaxJobs));
  }
  const double span = options.span_override_seconds > 0.0
                          ? options.span_override_seconds
                          : spec.span_seconds;
  const size_t hours = static_cast<size_t>(std::ceil(span / 3600.0));

  Pcg32 master(options.seed, /*stream=*/0x5411);
  Pcg32 arrival_rng = master.Fork();
  Pcg32 type_rng = master.Fork();
  Pcg32 dims_rng = master.Fork();
  Pcg32 name_rng = master.Fork();
  Pcg32 file_rng = master.Fork();

  // --- 1. Arrival times ----------------------------------------------------
  // Interactive (small) jobs follow the full bursty envelope - they are
  // human- and pipeline-triggered exploration. Batch (large) classes run on
  // their own steadier schedule (daily reports, ETL): diurnal/weekly cycles
  // but only mild bursts. This decoupling is what keeps the paper's
  // jobs-vs-bytes and jobs-vs-compute hourly correlations low (~0.2) while
  // bytes-vs-compute stays high (~0.6): job counts are dominated by the
  // small-job stream, bytes and compute by the batch stream.
  std::vector<double> interactive_envelope =
      BuildRateEnvelope(spec.arrival, hours, arrival_rng);
  ArrivalSpec batch_arrival = spec.arrival;
  // Batch pipelines burst less than the interactive stream but not zero -
  // backfills and re-runs cluster; half the interactive sigma matches the
  // paper's Figure 8 spread.
  batch_arrival.burst_log_sigma = 0.5 * spec.arrival.burst_log_sigma;
  std::vector<double> batch_envelope =
      BuildRateEnvelope(batch_arrival, hours, arrival_rng);
  // Batch load is not fully independent of the interactive stream - shared
  // triggers (data landing, backlogs) couple them mildly. The 0.25 blend
  // reproduces the paper's weak-but-nonzero jobs-bytes/jobs-compute hourly
  // correlations (~0.2) without re-tying the peaks.
  for (size_t h = 0; h < hours; ++h) {
    batch_envelope[h] =
        0.75 * batch_envelope[h] + 0.25 * interactive_envelope[h];
  }
  stats::DiscreteSampler interactive_sampler(interactive_envelope);
  stats::DiscreteSampler batch_sampler(batch_envelope);

  std::vector<double> type_weights;
  std::vector<bool> type_is_batch;
  type_weights.reserve(spec.job_types.size());
  for (const auto& jt : spec.job_types) {
    type_weights.push_back(jt.count_weight);
    double total = jt.input_bytes + jt.shuffle_bytes + jt.output_bytes;
    type_is_batch.push_back(total >= 10e9);  // the paper's 10 GB dichotomy
  }
  stats::DiscreteSampler type_sampler(type_weights);

  // (type, submit time) pairs, then chronological order. Interactive jobs
  // draw their hour from the bursty envelope. Batch jobs of each class are
  // cron-like: spread evenly across the span with jitter and a mild
  // preference for the batch envelope's hours - production pipelines fire
  // on schedules, they do not bunch with interactive bursts.
  std::vector<std::pair<double, uint32_t>> schedule(total_jobs);
  std::vector<std::vector<size_t>> batch_instances(spec.job_types.size());
  for (size_t i = 0; i < total_jobs; ++i) {
    uint32_t type_index =
        static_cast<uint32_t>(type_sampler.Sample(type_rng));
    schedule[i].second = type_index;
    if (type_is_batch[type_index]) {
      batch_instances[type_index].push_back(i);
    } else {
      double hour = static_cast<double>(interactive_sampler.Sample(arrival_rng));
      schedule[i].first = (hour + arrival_rng.NextDouble()) * 3600.0;
    }
  }
  for (const auto& instances : batch_instances) {
    const double interval =
        span / static_cast<double>(std::max<size_t>(1, instances.size()));
    for (size_t k = 0; k < instances.size(); ++k) {
      double slot_start = static_cast<double>(k) * interval;
      if (arrival_rng.NextBernoulli(0.25)) {
        // A quarter of batch runs are ad-hoc re-runs following the batch
        // envelope instead of the schedule.
        double hour = static_cast<double>(batch_sampler.Sample(arrival_rng));
        schedule[instances[k]].first =
            (hour + arrival_rng.NextDouble()) * 3600.0;
      } else {
        schedule[instances[k]].first =
            slot_start + arrival_rng.NextDouble() * interval;
      }
    }
  }
  std::sort(schedule.begin(), schedule.end());

  FilePopulationSim files(spec.files, spec.columns, file_rng, total_jobs);

  // Each class's name grammar and its word weights.
  std::vector<const std::vector<NameWeight>*> grammars;
  std::vector<std::vector<double>> name_weights;
  for (const JobTypeSpec& jt : spec.job_types) {
    grammars.push_back(jt.name_words.empty() ? &spec.default_name_words
                                             : &jt.name_words);
    name_weights.emplace_back();
    for (const auto& nw : *grammars.back()) {
      name_weights.back().push_back(nw.weight);
    }
  }

  // --- 2-4. Columns ---------------------------------------------------------
  // Per block of jobs: one serial pass makes every dims_rng draw, in the
  // order the draws are part of the output (the shared factor, one draw
  // per dimension with a positive median, the typical-task uniform); a
  // ParallelFor turns them into column values, identical at any lane
  // count; then names and paths follow serially, since each path re-access
  // samples earlier jobs. Jobs are made in submit order, so names and paths
  // are interned in the trace's first-appearance order.
  trace::TraceColumns columns;
  columns.Resize(total_jobs);
  StringInterner names;
  std::vector<JobDraws> draws(std::min(kDrawBlockJobs, total_jobs));
  for (size_t block = 0; block < total_jobs; block += kDrawBlockJobs) {
    const size_t block_end = std::min(total_jobs, block + kDrawBlockJobs);
    for (size_t i = block; i < block_end; ++i) {
      const JobTypeSpec& jt = spec.job_types[schedule[i].second];
      JobDraws& d = draws[i - block];
      d.shared = dims_rng.NextGaussianDraw();
      for (size_t f = 0; f < kDimensions.size(); ++f) {
        if (jt.*kDimensions[f].median > 0.0) {
          d.noise[f] = dims_rng.NextGaussianDraw();
        }
      }
      d.typical_task_u = dims_rng.NextDouble();
    }
    ParallelFor(block, block_end, kFillGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const JobTypeSpec& jt = spec.job_types[schedule[i].second];
        const JobDraws& d = draws[i - block];
        columns.job_id[i] = i + 1;
        columns.submit_time[i] = schedule[i].first;
        const double shared = Pcg32::GaussianFromDraw(d.shared);
        for (size_t f = 0; f < kDimensions.size(); ++f) {
          const Dimension& dim = kDimensions[f];
          const double median = jt.*dim.median;
          (columns.*dim.column)[i] =
              median > 0.0
                  ? SampleDimension(median, dim.sigma_scale * jt.log_sigma,
                                    shared, Pcg32::GaussianFromDraw(d.noise[f]))
                  : 0.0;
        }
        // Task counts: tasks last tens of seconds in Hadoop; very small
        // jobs degenerate to a single wave of one map (and one reduce)
        // task - the straggler-detection hazard the paper highlights in
        // section 6.2.
        const double typical_task = 20.0 + (60.0 - 20.0) * d.typical_task_u;
        columns.map_tasks[i] = std::max<int64_t>(
            1, static_cast<int64_t>(columns.map_task_seconds[i] /
                                    typical_task));
        columns.reduce_tasks[i] =
            jt.reduce_task_seconds > 0.0
                ? std::max<int64_t>(
                      1, static_cast<int64_t>(columns.reduce_task_seconds[i] /
                                              typical_task))
                : 0;
      }
    });
    for (size_t i = block; i < block_end; ++i) {
      const size_t type = schedule[i].second;
      columns.name_id[i] = kNoStringId;
      if (spec.columns.names && !grammars[type]->empty()) {
        size_t pick = name_rng.NextDiscrete(name_weights[type]);
        columns.name_id[i] = trace::InternField(
            DecorateJobName((*grammars[type])[pick].word, columns.job_id[i],
                            name_rng),
            names);
      }
      const FilePopulationSim::PathIds paths = files.AssignPaths(
          columns.job_id[i], columns.submit_time[i],
          columns.submit_time[i] + columns.duration[i],
          columns.input_bytes[i], columns.output_bytes[i]);
      columns.input_path_id[i] = paths.input;
      columns.output_path_id[i] = paths.output;
    }
  }

  trace::TraceMetadata metadata = spec.metadata;
  metadata.has_names = spec.columns.names;
  metadata.has_input_paths = spec.columns.input_paths;
  metadata.has_output_paths = spec.columns.output_paths;
  return trace::Trace(std::move(metadata), std::move(columns),
                      std::move(names), files.TakePaths());
}

}  // namespace swim::workloads
