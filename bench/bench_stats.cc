// Microbenchmark for the stats kernel layer: the FFT periodogram, the
// Walker/Vose alias samplers, and the sort-once quantile view, each against
// the implementation it replaced on the analysis/synthesis hot paths.
//
// Scenarios:
//   periodogram/fft:    O(n log n) FFT periodogram at n = 16384 (the
//                       minute-granularity multi-week series the diurnal
//                       analysis wants to handle)
//   periodogram/naive:  the pre-change O(n^2) direct DFT, run once
//   periodogram/bluestein: FFT at the composite length 10080 (a week of
//                       minutes) exercising the chirp-z path
//   sample/alias:       1M draws from 50k Zipf weights via AliasTable
//   sample/lower_bound: same draws via the cumulative-table binary search
//                       the synthesizer/trace-generator inner loops used
//   quantile/sorted_once: SortedStats built once, then p50/p90/p99 reads
//   quantile/per_call:  three stats::Quantile calls (copy + sort each)
//
// --json <path> emits {name, jobs_per_sec, threads, median_seconds,
// repeats, warmups} rows (ops/sec in the jobs_per_sec field, matching the
// repo's BENCH_*.json convention); timing is median-of-N after warm-up
// (bench_common.h MedianOpsPerSec) so the CI gates are not single-shot.
//
// Hard gates (ISSUE acceptance criteria): FFT >= 10x over the naive DFT at
// n = 16384, alias sampling >= 2x over lower_bound at 1M draws.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/fourier.h"
#include "stats/sampling.h"

namespace {

double checksum_sink = 0.0;  // defeats dead-code elimination

/// Diurnal signal plus deterministic noise, like an hourly submit series.
std::vector<double> NoisySeries(size_t n, swim::Pcg32& rng) {
  std::vector<double> series(n);
  for (size_t t = 0; t < n; ++t) {
    series[t] = 10.0 + 3.0 * std::sin(2.0 * 3.14159265358979323846 *
                                      static_cast<double>(t) / 24.0) +
                rng.NextDouble(-1.0, 1.0);
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string json_path = bench::ParseBenchFlags(argc, argv);
  bench::BenchJsonWriter json;
  Pcg32 rng(bench::kBenchSeed, /*stream=*/0x57a7);

  // -- Periodogram: FFT vs direct DFT --
  constexpr size_t kFftLen = 16384;
  constexpr size_t kBluesteinLen = 10080;  // one week of minutes
  bench::Banner("Periodogram: FFT vs O(n^2) DFT");
  std::vector<double> series = NoisySeries(kFftLen, rng);
  std::vector<double> week = NoisySeries(kBluesteinLen, rng);
  bench::BenchTiming fft = bench::MedianOpsPerSec(1, 1, 5, [&] {
    checksum_sink += stats::Periodogram(series).front().power;
  });
  bench::BenchTiming bluestein = bench::MedianOpsPerSec(1, 1, 5, [&] {
    checksum_sink += stats::Periodogram(week).front().power;
  });
  // The naive DFT takes seconds per transform; one timed run (no warm-up)
  // is plenty - it is the baseline, not the gated side.
  bench::BenchTiming naive = bench::MedianOpsPerSec(1, 0, 1, [&] {
    checksum_sink += stats::NaivePeriodogram(series).front().power;
  });
  double fft_speedup = fft.ops_per_sec / naive.ops_per_sec;
  std::printf("  %-22s %12.2f transforms/s (n=%zu)\n", "periodogram/fft",
              fft.ops_per_sec, kFftLen);
  std::printf("  %-22s %12.2f transforms/s (n=%zu)\n", "periodogram/bluestein",
              bluestein.ops_per_sec, kBluesteinLen);
  std::printf("  %-22s %12.2f transforms/s (n=%zu)   fft: %.0fx\n",
              "periodogram/naive", naive.ops_per_sec, kFftLen, fft_speedup);
  json.Add("periodogram/fft", fft, 1);
  json.Add("periodogram/bluestein", bluestein, 1);
  json.Add("periodogram/naive", naive, 1);

  // -- Discrete sampling: alias table vs cumulative binary search --
  constexpr size_t kRanks = 50000;
  constexpr size_t kDraws = 1000000;
  constexpr int kRepeats = 5;
  bench::Banner("Discrete sampling: alias table vs lower_bound");
  std::printf(
      "  %zu draws over %zu Zipf(5/6) ranks, median of %d runs after "
      "1 warm-up\n",
      kDraws, kRanks, kRepeats);
  std::vector<double> weights(kRanks);
  for (size_t r = 0; r < kRanks; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -5.0 / 6.0);
  }
  std::vector<double> cumulative(kRanks);
  double total = 0.0;
  for (size_t r = 0; r < kRanks; ++r) cumulative[r] = total += weights[r];
  stats::AliasTable table(weights);
  bench::BenchTiming alias = bench::MedianOpsPerSec(kDraws, 1, kRepeats, [&] {
    Pcg32 draw_rng(bench::kBenchSeed, /*stream=*/0xa11a);
    size_t acc = 0;
    for (size_t i = 0; i < kDraws; ++i) acc += table.Sample(draw_rng);
    checksum_sink += static_cast<double>(acc);
  });
  bench::BenchTiming search = bench::MedianOpsPerSec(kDraws, 1, kRepeats, [&] {
    Pcg32 draw_rng(bench::kBenchSeed, /*stream=*/0xa11a);
    size_t acc = 0;
    for (size_t i = 0; i < kDraws; ++i) {
      double u = draw_rng.NextDouble() * total;
      size_t rank = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      acc += std::min(rank, kRanks - 1);
    }
    checksum_sink += static_cast<double>(acc);
  });
  double alias_speedup = alias.ops_per_sec / search.ops_per_sec;
  std::printf("  %-22s %12.0f draws/s\n", "sample/alias", alias.ops_per_sec);
  std::printf("  %-22s %12.0f draws/s   alias: %.2fx\n", "sample/lower_bound",
              search.ops_per_sec, alias_speedup);
  json.Add("sample/alias", alias, 1);
  json.Add("sample/lower_bound", search, 1);

  // -- Quantiles: sort-once view vs per-call copy+sort --
  constexpr size_t kLatencies = 1000000;
  bench::Banner("Quantiles: SortedStats vs per-call Quantile");
  std::vector<double> latencies(kLatencies);
  for (double& v : latencies) v = rng.NextLognormal(3.0, 1.5);
  bench::BenchTiming sorted_once = bench::MedianOpsPerSec(1, 1, 3, [&] {
    stats::SortedStats stats(latencies);
    checksum_sink +=
        stats.Quantile(0.5) + stats.Quantile(0.9) + stats.Quantile(0.99);
  });
  bench::BenchTiming per_call = bench::MedianOpsPerSec(1, 1, 3, [&] {
    checksum_sink += stats::Quantile(latencies, 0.5) +
                     stats::Quantile(latencies, 0.9) +
                     stats::Quantile(latencies, 0.99);
  });
  double quantile_speedup = sorted_once.ops_per_sec / per_call.ops_per_sec;
  std::printf("  %-22s %12.2f reports/s (n=%zu, 3 quantiles)\n",
              "quantile/sorted_once", sorted_once.ops_per_sec, kLatencies);
  std::printf("  %-22s %12.2f reports/s   sorted_once: %.2fx\n",
              "quantile/per_call", per_call.ops_per_sec, quantile_speedup);
  json.Add("quantile/sorted_once", sorted_once, 1);
  json.Add("quantile/per_call", per_call, 1);

  bench::Banner("Speedup summary");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.0fx", fft_speedup);
  bench::PaperVsMeasured("FFT periodogram vs naive DFT (n=16384)", ">= 10x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", alias_speedup);
  bench::PaperVsMeasured("alias sampling vs lower_bound (1M draws)", ">= 2x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", quantile_speedup);
  bench::PaperVsMeasured("sort-once vs per-call quantiles (3 reads)", "> 1x",
                         buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  // Hard gates: the ISSUE acceptance criteria.
  bool failed = false;
  if (fft_speedup < 10.0) {
    std::printf("\nFAIL: FFT speedup %.1fx below the 10x gate\n", fft_speedup);
    failed = true;
  }
  if (alias_speedup < 2.0) {
    std::printf("\nFAIL: alias speedup %.2fx below the 2x gate\n",
                alias_speedup);
    failed = true;
  }
  if (failed) return 1;
  std::printf("\n(checksum %.0f)\n", checksum_sink > 0 ? 1.0 : 0.0);
  return 0;
}
