// Serial-vs-parallel throughput for the parallelized hot paths: the full
// AnalyzeWorkload stage pipeline, CSV trace ingest, k-means, trace
// generation and CSV encoding. Also asserts the determinism contract
// (identical output at any thread count) end to end on the bench-scale
// FB-2010 trace; exits non-zero on any mismatch so perf CI doubles as a
// correctness gate.
//
// Usage: bench_parallel [--json <path>]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/analysis/workload_report.h"
#include "stats/kmeans.h"
#include "trace/trace_io.h"

namespace swim::bench {
namespace {

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs `fn` with SWIM_THREADS set to `lanes` (the lane count of every
/// ParallelFor that takes its default), then restores the variable.
template <typename Fn>
double TimeAtLanes(int lanes, Fn&& fn) {
  const char* old = std::getenv("SWIM_THREADS");
  const std::string saved = old ? old : "";
  ::setenv("SWIM_THREADS", std::to_string(lanes).c_str(), 1);
  const double seconds = TimeSeconds(fn);
  if (old) {
    ::setenv("SWIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SWIM_THREADS");
  }
  return seconds;
}

void Report(const char* name, size_t items, double serial_sec,
            double parallel_sec, int threads, BenchJsonWriter* json) {
  const double serial_rate = static_cast<double>(items) / serial_sec;
  const double parallel_rate = static_cast<double>(items) / parallel_sec;
  std::printf(
      "  %-10s serial: %10.0f jobs/sec   %d threads: %10.0f jobs/sec   "
      "speedup: %.2fx\n",
      name, serial_rate, threads, parallel_rate, serial_sec / parallel_sec);
  json->Add(std::string(name) + "_serial", serial_rate, 1);
  json->Add(std::string(name) + "_parallel", parallel_rate, threads);
}

int Run(int argc, char** argv) {
  const std::string json_path = ParseBenchFlags(argc, argv);
  BenchJsonWriter json;
  const int threads = DefaultParallelism();
  bool deterministic = true;

  Banner("parallel layer: serial vs " + std::to_string(threads) +
         " worker lanes (FB-2010 @ " + std::to_string(kJobCap) + " jobs)");
  trace::Trace trace = BenchTrace("FB-2010");

  // --- AnalyzeWorkload: the full stage fan-out + k-means pipeline -------
  core::AnalysisOptions serial_opts;
  serial_opts.threads = 1;
  core::AnalysisOptions parallel_opts;
  parallel_opts.threads = threads;
  StatusOr<core::WorkloadReport> serial_report = InvalidArgumentError("pending");
  StatusOr<core::WorkloadReport> parallel_report = InvalidArgumentError("pending");
  double analyze_serial =
      TimeSeconds([&]() { serial_report = AnalyzeWorkload(trace, serial_opts); });
  double analyze_parallel = TimeSeconds(
      [&]() { parallel_report = AnalyzeWorkload(trace, parallel_opts); });
  SWIM_CHECK_OK(serial_report.status());
  SWIM_CHECK_OK(parallel_report.status());
  if (FormatReport(*serial_report) != FormatReport(*parallel_report)) {
    std::printf("  !! analyze: serial and parallel reports DIFFER\n");
    deterministic = false;
  }
  Report("analyze", trace.size(), analyze_serial, analyze_parallel, threads,
         &json);

  // --- CSV ingest: sharded parse + zero-copy field splitting ------------
  const std::string csv = trace::TraceToCsv(trace);
  StatusOr<trace::Trace> serial_parsed = InvalidArgumentError("pending");
  StatusOr<trace::Trace> parallel_parsed = InvalidArgumentError("pending");
  double ingest_serial =
      TimeSeconds([&]() { serial_parsed = trace::TraceFromCsv(csv, 1); });
  double ingest_parallel =
      TimeSeconds([&]() { parallel_parsed = trace::TraceFromCsv(csv, threads); });
  SWIM_CHECK_OK(serial_parsed.status());
  SWIM_CHECK_OK(parallel_parsed.status());
  if (serial_parsed->jobs() != parallel_parsed->jobs()) {
    std::printf("  !! ingest: serial and parallel parses DIFFER\n");
    deterministic = false;
  }
  Report("ingest", trace.size(), ingest_serial, ingest_parallel, threads,
         &json);

  // --- k-means: parallel assignment + concurrent restarts ---------------
  Pcg32 rng(kBenchSeed);
  stats::PointMatrix points;
  points.dims = 6;
  points.values.reserve(60000 * points.dims);
  for (size_t i = 0; i < 60000 * points.dims; ++i) {
    points.values.push_back(rng.NextGaussian());
  }
  stats::KMeansOptions km_serial;
  km_serial.seed = kBenchSeed;
  km_serial.restarts = 4;
  km_serial.threads = 1;
  stats::KMeansOptions km_parallel = km_serial;
  km_parallel.threads = threads;
  StatusOr<stats::KMeansResult> serial_fit = InvalidArgumentError("pending");
  StatusOr<stats::KMeansResult> parallel_fit = InvalidArgumentError("pending");
  double kmeans_serial =
      TimeSeconds([&]() { serial_fit = stats::KMeansFit(points, 8, km_serial); });
  double kmeans_parallel = TimeSeconds(
      [&]() { parallel_fit = stats::KMeansFit(points, 8, km_parallel); });
  SWIM_CHECK_OK(serial_fit.status());
  SWIM_CHECK_OK(parallel_fit.status());
  if (serial_fit->centroids != parallel_fit->centroids ||
      serial_fit->assignments != parallel_fit->assignments ||
      serial_fit->residual_variance != parallel_fit->residual_variance ||
      serial_fit->distance_evaluations !=
          parallel_fit->distance_evaluations) {
    std::printf("  !! kmeans: serial and parallel fits DIFFER\n");
    deterministic = false;
  }
  Report("kmeans", points.rows(), kmeans_serial, kmeans_parallel, threads,
         &json);
  std::printf("  %-10s %llu point-centroid distances (%d iterations)\n", "",
              static_cast<unsigned long long>(
                  parallel_fit->distance_evaluations),
              parallel_fit->iterations);

  // --- Trace generation: serial draws + parallel row fill ---------------
  StatusOr<trace::Trace> serial_trace = InvalidArgumentError("pending");
  StatusOr<trace::Trace> parallel_trace = InvalidArgumentError("pending");
  auto spec = workloads::PaperWorkloadByName("FB-2010");
  SWIM_CHECK_OK(spec.status());
  workloads::GeneratorOptions gen_options;
  gen_options.seed = kBenchSeed;
  gen_options.job_count_override = kJobCap;
  double generate_serial = TimeAtLanes(1, [&]() {
    serial_trace = workloads::GenerateTrace(*spec, gen_options);
  });
  double generate_parallel = TimeAtLanes(threads, [&]() {
    parallel_trace = workloads::GenerateTrace(*spec, gen_options);
  });
  SWIM_CHECK_OK(serial_trace.status());
  SWIM_CHECK_OK(parallel_trace.status());
  if (serial_trace->jobs() != parallel_trace->jobs()) {
    std::printf("  !! generate: serial and parallel traces DIFFER\n");
    deterministic = false;
  }
  Report("generate", kJobCap, generate_serial, generate_parallel, threads,
         &json);

  // --- CSV encode: chunked parallel row formatting ----------------------
  std::string serial_csv;
  std::string parallel_csv;
  double encode_serial =
      TimeAtLanes(1, [&]() { serial_csv = trace::TraceToCsv(trace); });
  double encode_parallel =
      TimeAtLanes(threads, [&]() { parallel_csv = trace::TraceToCsv(trace); });
  if (serial_csv != parallel_csv) {
    std::printf("  !! csv_encode: serial and parallel bytes DIFFER\n");
    deterministic = false;
  }
  Report("csv_encode", trace.size(), encode_serial, encode_parallel, threads,
         &json);

  std::printf("  determinism (1 vs %d threads): %s\n", threads,
              deterministic ? "PASS" : "FAIL");
  if (!json.WriteTo(json_path)) {
    std::printf("  !! cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!json_path.empty()) std::printf("  wrote %s\n", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace swim::bench

int main(int argc, char** argv) { return swim::bench::Run(argc, argv); }
