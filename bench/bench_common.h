#ifndef SWIM_BENCH_BENCH_COMMON_H_
#define SWIM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "trace/trace.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim::bench {

/// Every figure/table bench uses the same seed so outputs are reproducible
/// run to run.
inline constexpr uint64_t kBenchSeed = 2012;  // the paper's year

/// Facebook traces hold > 1M jobs; benches generate them scaled down to
/// this cap (per-job statistics are unchanged; count-based statistics are
/// reported per scaled trace).
inline constexpr size_t kJobCap = 100000;

/// Generates the named paper workload at bench scale.
inline trace::Trace BenchTrace(const std::string& name,
                               size_t job_cap = kJobCap) {
  auto spec = workloads::PaperWorkloadByName(name);
  SWIM_CHECK_OK(spec.status());
  workloads::GeneratorOptions options;
  options.seed = kBenchSeed;
  if (spec->total_jobs > job_cap) {
    options.job_count_override = job_cap;
  }
  auto trace = workloads::GenerateTrace(*spec, options);
  SWIM_CHECK_OK(trace.status());
  return *std::move(trace);
}

/// Section banner.
inline void Banner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// One timed measurement: `warmups` untimed runs to populate caches / JIT
/// the branch predictors / fault in pages, then `repeats` timed runs with
/// the median reported. The CI bench-smoke gates compare these numbers
/// against hard thresholds, so single-shot timing (one cold run deciding
/// pass/fail) is not acceptable; the median is robust against one run
/// absorbing a scheduling hiccup on shared runners, where a min would
/// hide systematic noise and a mean would amplify it.
struct BenchTiming {
  double ops_per_sec = 0.0;
  double median_seconds = 0.0;
  int repeats = 1;
  int warmups = 0;
};

/// Runs `body` `warmups` untimed + `repeats` timed times; returns the
/// median-based throughput (ops / median seconds).
template <typename Body>
BenchTiming MedianOpsPerSec(size_t ops, int warmups, int repeats,
                            Body&& body) {
  using Clock = std::chrono::steady_clock;
  for (int w = 0; w < warmups; ++w) body();
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    auto start = Clock::now();
    body();
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  // Lower median for even repeat counts: deterministic, slightly
  // conservative-optimistic is fine since every row uses the same rule.
  double median = seconds[(seconds.size() - 1) / 2];
  BenchTiming timing;
  timing.median_seconds = median;
  timing.ops_per_sec = static_cast<double>(ops) / std::max(median, 1e-12);
  timing.repeats = repeats;
  timing.warmups = warmups;
  return timing;
}

/// One machine-readable throughput measurement; serialized by
/// BenchJsonWriter as {"name": ..., "jobs_per_sec": ..., "threads": ...,
/// "median_seconds": ..., "repeats": ..., "warmups": ...}. The throughput
/// field keeps its historical name so perf-trajectory tooling reads old
/// and new files uniformly; repeats=1/warmups=0 marks a single-shot row.
struct BenchJsonRow {
  std::string name;
  double jobs_per_sec = 0.0;
  int threads = 1;
  double median_seconds = 0.0;
  int repeats = 1;
  int warmups = 0;
};

/// Collects BenchJsonRows and writes them as a JSON array, one object per
/// row — the BENCH_*.json perf-trajectory format. Names must not contain
/// characters needing JSON escaping (bench code controls them).
class BenchJsonWriter {
 public:
  void Add(std::string name, double jobs_per_sec, int threads) {
    rows_.push_back({std::move(name), jobs_per_sec, threads, 0.0, 1, 0});
  }

  void Add(std::string name, const BenchTiming& timing, int threads) {
    rows_.push_back({std::move(name), timing.ops_per_sec, threads,
                     timing.median_seconds, timing.repeats, timing.warmups});
  }

  /// Writes the collected rows; no-op (success) when `path` is empty.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) return false;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"jobs_per_sec\": %.3f, "
                   "\"threads\": %d, \"median_seconds\": %.6f, "
                   "\"repeats\": %d, \"warmups\": %d}%s\n",
                   rows_[i].name.c_str(), rows_[i].jobs_per_sec,
                   rows_[i].threads, rows_[i].median_seconds,
                   rows_[i].repeats, rows_[i].warmups,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    return true;
  }

 private:
  std::vector<BenchJsonRow> rows_;
};

/// Parses a bench's command line: the flags `cli` declares plus
/// `--json <file>`, whose path it returns ("" when absent). A bad argument
/// exits 2 naming it.
inline std::string ParseBenchFlags(int argc, char** argv,
                                   flags::FlagSet cli = {}) {
  std::string json_path;
  const Status parsed = cli.Add("--json", &json_path).Parse(argc, argv);
  if (!parsed.ok()) std::exit(flags::UsageError(parsed));
  return json_path;
}

/// "paper=X measured=Y" comparison row.
inline void PaperVsMeasured(const std::string& what, const std::string& paper,
                            const std::string& measured) {
  std::printf("  %-46s paper: %-18s measured: %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

}  // namespace swim::bench

#endif  // SWIM_BENCH_BENCH_COMMON_H_
