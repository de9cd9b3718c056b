// Replay engine benchmark: the calendar-queue core (sim/replay.cc) on a
// 1M-task trace, FIFO cost under saturation, plus the parallel sweep
// driver's thread scaling.
//
// Single-replay scenario: a 1M-task day-long synthetic trace shaped like
// the paper's FB workloads after task-cap merging - tens of thousands of
// jobs, tens of tasks each, long waves, so ~1200 jobs are in flight at
// once. Every event reaches the grant loop with free slots available, the
// regime where a per-event scan of the active jobs would dominate. The
// result must equal a pinned ReplayResultDigest before timing counts -
// a different digest is a change in replay results, not a perf result.
//
// Sweep scenario: a 10k-configuration what-if grid - policy x nodes x
// failure-model x seed - on a small trace, three ways:
//   sweep/baseline   one ReplayTrace per cell (trace -> jobs conversion
//                    and heap allocation paid 10k times - the pre-rebuild
//                    sweep inner loop)
//   sweep/serial     RunSweep at 1 lane: one shared ReplayTemplate,
//                    arena-backed runs
//   sweep/parallel8  RunSweep at 8 lanes
// All 10k cells must be byte-identical between 1 and 8 lanes and against
// the per-cell baseline.
//
// Saturation scenario: FIFO on an FB-2010 trace of 200k jobs at ~31% and
// ~75% utilization. Saturation deepens the runnable backlog by orders of
// magnitude; with the submit-ordered runnable index a FIFO pick reads a
// heap head, so the cost per event may grow only by the heap's log
// factor. A third run makes every task straggle (--stragglers 1 at 600
// nodes), the case that used to scan a backlog of thousands per grant
// and ran for minutes.
//
// --json <path> emits {name, jobs_per_sec, threads, median_seconds,
// repeats, warmups} rows (jobs, events or configs per second; the
// saturation/per_event_ratio row carries a ratio). Hard gates: the pinned
// 1M-task digest, the 1M-task replay's median within
// kCalendarCeilingSeconds, FIFO time per event at ~75% utilization <= 2x
// that at ~31%, the all-stragglers FIFO replay within 30 s, template
// sweep >= 1.15x the per-cell baseline, and sweep/parallel8 >= 3x
// sweep/serial - the latter only enforced when the host has >= 4 cores
// (CI runners do; a 1-core dev box cannot scale by fiat and reports
// SKIPPED instead).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/units.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "trace/trace.h"

namespace {

/// ReplayResultDigest of the 1M-task fair replay below. Taken while the
/// retired priority-queue engine still ran alongside: both engines
/// produced this digest.
constexpr uint64_t kPinnedDigest = 0x6b832429aef3038d;

/// Ceiling on the 1M-task replay's median: a quarter of the retired
/// priority-queue engine's median on the same trace (41.1 s on a 4-core
/// Xeon host), so the gate keeps the strength of the "calendar >= 4x
/// retired engine" ratio it replaces.
constexpr double kCalendarCeilingSeconds = 10.28;

/// Day-long trace of `jobs` map-reduce jobs with ~`tasks_per_job` tasks
/// each: multi-hour map waves so in-flight jobs pile up, jittered submits
/// and durations so event times spread realistically.
swim::trace::Trace SyntheticTrace(size_t jobs, int64_t maps, int64_t reduces,
                                  uint64_t seed) {
  swim::trace::Trace t;
  swim::Pcg32 rng(seed, /*stream=*/0xbe7c);
  const double span = 24.0 * 3600.0;
  for (size_t i = 0; i < jobs; ++i) {
    swim::trace::JobRecord job;
    job.job_id = i + 1;
    job.submit_time = span * static_cast<double>(i) /
                          static_cast<double>(jobs) +
                      rng.NextDouble(0.0, 1.0);
    job.map_tasks = maps;
    job.map_task_seconds =
        static_cast<double>(maps) * rng.NextDouble(3000.0, 4200.0);
    job.reduce_tasks = reduces;
    job.reduce_task_seconds =
        static_cast<double>(reduces) * rng.NextDouble(400.0, 800.0);
    job.input_bytes = rng.NextDouble(1e6, 1e9);
    job.duration = job.map_task_seconds / static_cast<double>(maps) +
                   (reduces > 0 ? job.reduce_task_seconds /
                                      static_cast<double>(reduces)
                                : 0.0);
    t.AddJob(std::move(job));
  }
  return t;
}

bool SameResult(const swim::sim::ReplayResult& a,
                const swim::sim::ReplayResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].job_id != b.outcomes[i].job_id ||
        a.outcomes[i].latency != b.outcomes[i].latency ||
        a.outcomes[i].retries != b.outcomes[i].retries) {
      return false;
    }
  }
  if (a.makespan != b.makespan || a.utilization != b.utilization ||
      a.hourly_occupancy != b.hourly_occupancy ||
      a.unfinished_jobs != b.unfinished_jobs ||
      a.failures.task_failures != b.failures.task_failures ||
      a.failures.retries != b.failures.retries ||
      a.failures.failed_task_seconds != b.failures.failed_task_seconds) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::BenchJsonWriter json;

  // -- 1M-task single replay: pinned digest, then timing --
  constexpr size_t kJobs = 25000;
  constexpr int64_t kMaps = 32;
  constexpr int64_t kReduces = 8;
  bench::Banner("Replay engine: calendar queue, 1M tasks");
  trace::Trace big = SyntheticTrace(kJobs, kMaps, kReduces, bench::kBenchSeed);
  sim::ReplayOptions options;
  options.cluster.nodes = 5000;  // free slots stay available: every event
                                 // reaches the grant loop
  options.scheduler = "fair";
  options.straggler_probability = 0.05;  // splits completion batches
  std::printf("  %zu jobs, %lld tasks, fair scheduler, %d nodes\n", kJobs,
              static_cast<long long>(kJobs * (kMaps + kReduces)),
              options.cluster.nodes);

  auto calendar_result = sim::ReplayTrace(big, options);
  SWIM_CHECK_OK(calendar_result.status());
  const uint64_t digest = sim::ReplayResultDigest(*calendar_result);
  if (digest != kPinnedDigest) {
    std::printf("\nFAIL: 1M-task digest 0x%016llx, pinned 0x%016llx\n",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(kPinnedDigest));
    return 1;
  }
  std::printf("  digest matches the pinned 0x%016llx (%zu outcomes, "
              "makespan %s)\n",
              static_cast<unsigned long long>(digest),
              calendar_result->outcomes.size(),
              FormatDuration(calendar_result->makespan).c_str());

  // The digest run above doubles as the warmup.
  bench::BenchTiming calendar = bench::MedianOpsPerSec(kJobs, 0, 3, [&] {
    auto r = sim::ReplayTrace(big, options);
    SWIM_CHECK_OK(r.status());
  });
  std::printf("  %-18s %12.0f jobs/s   (median %.3fs, ceiling %.2fs)\n",
              "replay/calendar", calendar.ops_per_sec,
              calendar.median_seconds, kCalendarCeilingSeconds);
  json.Add("replay/calendar", calendar, 1);

  // -- 10k-configuration what-if sweep: baseline vs template vs lanes --
  bench::Banner("Sweep driver: 10k-configuration what-if grid");
  trace::Trace small = SyntheticTrace(250, 10, 3, bench::kBenchSeed + 1);
  std::vector<sim::SweepConfig> grid;
  {
    // policy(3) x nodes(2) x failure-model(2) x seeds(834) = 10008 cells.
    std::vector<uint64_t> seeds(834);
    for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = i + 1;
    for (const char* policy : {"fifo", "fair", "two-tier"}) {
      for (int nodes : {40, 80}) {
        for (int failures = 0; failures < 2; ++failures) {
          for (uint64_t seed : seeds) {
            sim::SweepConfig config;
            config.trace = &small;
            config.options.scheduler = policy;
            config.options.cluster.nodes = nodes;
            config.options.seed = seed;
            config.options.straggler_probability = 0.05;
            if (failures != 0) {
              config.options.failures.task_failure_probability = 0.02;
              config.options.failures.node_loss_per_hour = 0.2;
            }
            config.label = std::string(policy) + "/n" +
                           std::to_string(nodes) +
                           (failures != 0 ? "/fail" : "/ok") + "/s" +
                           std::to_string(seed);
            grid.push_back(std::move(config));
          }
        }
      }
    }
  }
  std::printf(
      "  %zu configurations (policy x nodes x failures x seed), "
      "%zu-job trace\n",
      grid.size(), small.jobs().size());

  // Pre-rebuild sweep inner loop: every cell pays its own trace -> jobs
  // conversion and allocates on the heap.
  std::vector<StatusOr<sim::ReplayResult>> baseline_results;
  bench::BenchTiming baseline =
      bench::MedianOpsPerSec(grid.size(), 0, 3, [&] {
        baseline_results.clear();
        baseline_results.reserve(grid.size());
        for (const sim::SweepConfig& config : grid) {
          baseline_results.push_back(
              sim::ReplayTrace(*config.trace, config.options));
        }
      });
  std::vector<StatusOr<sim::ReplayResult>> serial_results;
  bench::BenchTiming serial =
      bench::MedianOpsPerSec(grid.size(), 0, 3, [&] {
        serial_results = sim::RunSweep(grid, /*max_parallelism=*/1);
      });
  std::vector<StatusOr<sim::ReplayResult>> parallel_results;
  bench::BenchTiming parallel =
      bench::MedianOpsPerSec(grid.size(), 0, 3, [&] {
        parallel_results = sim::RunSweep(grid, /*max_parallelism=*/8);
      });

  // Correctness before timing counts: all 10k cells byte-identical
  // between 1 and 8 lanes and against per-cell ReplayTrace.
  for (size_t i = 0; i < grid.size(); ++i) {
    SWIM_CHECK_OK(baseline_results[i].status());
    SWIM_CHECK_OK(serial_results[i].status());
    SWIM_CHECK_OK(parallel_results[i].status());
    if (!SameResult(*serial_results[i], *parallel_results[i])) {
      std::printf("\nFAIL: sweep cell %s differs between 1 and 8 lanes\n",
                  grid[i].label.c_str());
      return 1;
    }
    if (!SameResult(*serial_results[i], *baseline_results[i])) {
      std::printf("\nFAIL: sweep cell %s differs from per-cell replay\n",
                  grid[i].label.c_str());
      return 1;
    }
  }
  double template_speedup = serial.ops_per_sec / baseline.ops_per_sec;
  double scaling = parallel.ops_per_sec / serial.ops_per_sec;
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("  %-18s %12.0f configs/s (median %.3fs)\n", "sweep/baseline",
              baseline.ops_per_sec, baseline.median_seconds);
  std::printf(
      "  %-18s %12.0f configs/s (median %.3fs)   %.2fx vs baseline\n",
      "sweep/serial", serial.ops_per_sec, serial.median_seconds,
      template_speedup);
  std::printf(
      "  %-18s %12.0f configs/s (median %.3fs)   %.2fx at 8 lanes "
      "(%u cores)\n",
      "sweep/parallel8", parallel.ops_per_sec, parallel.median_seconds,
      scaling, cores);
  std::printf(
      "  all %zu cells bit-identical: 1 lane == 8 lanes == per-cell "
      "replay\n",
      grid.size());
  json.Add("sweep/baseline", baseline, 1);
  json.Add("sweep/serial", serial, 1);
  json.Add("sweep/parallel8", parallel, 8);

  // -- FIFO under saturation: cost per event as the backlog deepens --
  bench::Banner("FIFO under saturation: FB-2010, 200k jobs");
  const trace::Trace fb = bench::BenchTrace("FB-2010", 200000);
  struct SaturationCase {
    const char* name;
    int nodes;
    double straggler_probability;
    int repeats;
  };
  const SaturationCase saturation_cases[] = {
      {"saturation/fifo_600_nodes", 600, 0.0, 3},
      {"saturation/fifo_250_nodes", 250, 0.0, 3},
      {"saturation/fifo_600_nodes_stragglers1", 600, 1.0, 1},
  };
  double seconds[std::size(saturation_cases)] = {};
  double seconds_per_event[std::size(saturation_cases)] = {};
  for (size_t c = 0; c < std::size(saturation_cases); ++c) {
    const SaturationCase& scenario = saturation_cases[c];
    sim::ReplayOptions fifo;
    fifo.cluster.nodes = scenario.nodes;
    fifo.scheduler = "fifo";
    fifo.straggler_probability = scenario.straggler_probability;
    StatusOr<sim::ReplayResult> result = InvalidArgumentError("not run");
    bench::BenchTiming timing =
        bench::MedianOpsPerSec(0, 0, scenario.repeats, [&] {
          result = sim::ReplayTrace(fb, fifo);
          SWIM_CHECK_OK(result.status());
        });
    const sim::EngineCounters& engine = result->engine;
    seconds[c] = timing.median_seconds;
    seconds_per_event[c] =
        timing.median_seconds / static_cast<double>(engine.events);
    timing.ops_per_sec =
        static_cast<double>(engine.events) / timing.median_seconds;
    std::printf(
        "  %-40s %6.1f%% util  %8.3fs  %6.1f ns/event  peak runnable "
        "maps %lld\n",
        scenario.name, 100.0 * result->utilization, timing.median_seconds,
        1e9 * seconds_per_event[c],
        static_cast<long long>(engine.peak_runnable_maps));
    json.Add(scenario.name, timing, 1);
  }
  const double per_event_ratio = seconds_per_event[1] / seconds_per_event[0];
  const double stragglers_seconds = seconds[2];
  std::printf("  time per event at 250 vs 600 nodes: %.2fx\n",
              per_event_ratio);
  json.Add("saturation/per_event_ratio_250_vs_600_nodes", per_event_ratio, 1);

  bench::Banner("Speedup summary");
  char buffer[64];
  char ceiling[64];
  std::snprintf(buffer, sizeof(buffer), "%.2fs", calendar.median_seconds);
  std::snprintf(ceiling, sizeof(ceiling), "<= %.2fs",
                kCalendarCeilingSeconds);
  bench::PaperVsMeasured("calendar engine, 1M-task replay (median)", ceiling,
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", per_event_ratio);
  bench::PaperVsMeasured("FIFO time/event, ~75% vs ~31% utilization",
                         "<= 2x", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fs", stragglers_seconds);
  bench::PaperVsMeasured("FIFO, every task straggling (200k jobs)", "<= 30s",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", template_speedup);
  bench::PaperVsMeasured("template+arena sweep vs per-cell replay (10k)",
                         ">= 1.15x", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", scaling);
  bench::PaperVsMeasured("sweep at 8 worker lanes vs 1 (10k configs)",
                         ">= 3x (4+ cores)", buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  // Hard gates. The per-event-ratio and template gates compare runs in
  // one binary, so they are hardware-independent; the calendar ceiling
  // and the straggler gate sit several times above the measured times;
  // the lane-scaling gate needs real cores and is skipped (loudly) on
  // boxes that cannot physically scale.
  if (calendar.median_seconds > kCalendarCeilingSeconds) {
    std::printf(
        "\nFAIL: 1M-task replay median %.2fs above the %.2fs ceiling\n",
        calendar.median_seconds, kCalendarCeilingSeconds);
    return 1;
  }
  if (per_event_ratio > 2.0) {
    std::printf(
        "\nFAIL: FIFO time per event at ~75%% utilization is %.2fx that at "
        "~31%%, above the 2x gate\n",
        per_event_ratio);
    return 1;
  }
  if (stragglers_seconds > 30.0) {
    std::printf(
        "\nFAIL: all-stragglers FIFO replay took %.1fs, above the 30s gate\n",
        stragglers_seconds);
    return 1;
  }
  if (template_speedup < 1.15) {
    std::printf(
        "\nFAIL: template sweep %.2fx below the 1.15x-vs-baseline gate\n",
        template_speedup);
    return 1;
  }
  if (cores >= 4) {
    if (scaling < 3.0) {
      std::printf(
          "\nFAIL: sweep scaling %.2fx at 8 lanes below the 3x gate "
          "(%u cores)\n",
          scaling, cores);
      return 1;
    }
  } else {
    std::printf(
        "\nSKIPPED: 3x lane-scaling gate needs >= 4 cores, host has %u\n",
        cores);
  }
  return 0;
}
