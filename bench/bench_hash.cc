// Microbenchmark for the open-addressing FlatHashMap and StringInterner
// against the std::unordered_map<std::string, ...> baseline they replaced
// on the analysis/storage/replay hot paths. The key stream is Zipf-skewed
// HDFS-style paths - the same shape the popularity analysis and file caches
// see on real traces (Figure 2: file popularity is Zipf with slope ~5/6).
//
// Scenarios, each over the same generated key stream:
//   count/std:    unordered_map<string,double>   operator[] accumulate -
//                 the pre-change pattern (every analysis pass hashed and
//                 compared full path strings per job)
//   count/flat:   FlatHashMap<string,double>     operator[] accumulate
//   count/interned: dense-vector accumulate over the precomputed id
//                 column - the post-change pattern (ids are assigned once
//                 at trace load by the Trace id-index build, then every
//                 analysis pass runs id-indexed; the one-time intern cost
//                 is reported separately as intern/build)
//   lookup/std vs lookup/flat: read-only find() over a pre-built table,
//                 probing with string_view (heterogeneous lookup).
//   probe/simd vs probe/portable: the same FlatHashMap compiled with the
//                 vector Group policy vs GroupPortable, on a miss-heavy
//                 integer probe stream (misses walk the most control
//                 groups, so they isolate the 16-byte scan itself).
//                 Gated >= 1.2x when this build has a SIMD group policy.
//
// --json <path> emits {name, jobs_per_sec, threads, median_seconds,
// repeats, warmups} rows (ops/sec in the jobs_per_sec field, matching the
// repo's BENCH_*.json convention); timing is median-of-N after warm-up
// (bench_common.h MedianOpsPerSec) so the CI gate is not single-shot.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/random.h"

namespace {

/// Zipf(s ~ 5/6) ranks via inverse-CDF over precomputed weights.
std::vector<std::string> MakeZipfPathStream(size_t distinct, size_t draws,
                                            swim::Pcg32& rng) {
  std::vector<double> cumulative(distinct);
  double total = 0.0;
  for (size_t rank = 0; rank < distinct; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), 5.0 / 6.0);
    cumulative[rank] = total;
  }
  std::vector<std::string> stream;
  stream.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    double u = rng.NextDouble() * total;
    size_t rank =
        static_cast<size_t>(std::lower_bound(cumulative.begin(),
                                             cumulative.end(), u) -
                            cumulative.begin());
    if (rank >= distinct) rank = distinct - 1;
    stream.push_back("/user/warehouse/part-" + std::to_string(rank) +
                     "/data-r-" + std::to_string(rank % 1000) + ".lzo");
  }
  return stream;
}

double checksum_sink = 0.0;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::BenchJsonWriter json;

  constexpr size_t kDistinct = 50000;
  constexpr size_t kDraws = 2000000;
  constexpr int kRepeats = 3;
  constexpr int kWarmups = 1;
  Pcg32 rng(bench::kBenchSeed, /*stream=*/0x4a5f);
  std::vector<std::string> stream = MakeZipfPathStream(kDistinct, kDraws, rng);

  bench::Banner("Hash microbenchmark: Zipf path stream");
  std::printf(
      "  %zu draws over %zu distinct paths, median of %d runs after "
      "%d warm-up\n\n",
      kDraws, kDistinct, kRepeats, kWarmups);

  // -- Counting (the file-popularity access pattern) --
  bench::BenchTiming std_count = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    std::unordered_map<std::string, double> counts;
    for (const std::string& key : stream) counts[key] += 1.0;
    checksum_sink += static_cast<double>(counts.size());
  });
  bench::BenchTiming flat_count = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    FlatHashMap<std::string, double> counts;
    for (const std::string& key : stream) counts[key] += 1.0;
    checksum_sink += static_cast<double>(counts.size());
  });
  // One-time id assignment (what the Trace id-index build pays at load)...
  StringInterner interner;
  std::vector<uint32_t> ids;
  bench::BenchTiming intern_build = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    interner.Clear();
    ids.clear();
    ids.reserve(stream.size());
    for (const std::string& key : stream) ids.push_back(interner.Intern(key));
    checksum_sink += static_cast<double>(interner.size());
  });
  // ...then every analysis pass over the trace is id-indexed: no string
  // hashing or comparison at all (the data_access.cc pattern).
  bench::BenchTiming interned_count = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    std::vector<double> counts(interner.size(), 0.0);
    for (uint32_t id : ids) counts[id] += 1.0;
    checksum_sink += static_cast<double>(counts.size());
  });

  // -- Read-only lookup (heterogeneous string_view probe) --
  std::unordered_map<std::string, double> std_table;
  FlatHashMap<std::string, double> flat_table;
  for (const std::string& key : stream) {
    std_table[key] += 1.0;
    flat_table[key] += 1.0;
  }
  bench::BenchTiming std_lookup = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    double hits = 0.0;
    for (const std::string& key : stream) {
      auto it = std_table.find(key);
      if (it != std_table.end()) hits += it->second;
    }
    checksum_sink += hits;
  });
  bench::BenchTiming flat_lookup = bench::MedianOpsPerSec(kDraws, kWarmups, kRepeats, [&] {
    double hits = 0.0;
    for (const std::string& key : stream) {
      auto it = flat_table.find(std::string_view(key));
      if (it != flat_table.end()) hits += it->second;
    }
    checksum_sink += hits;
  });

  auto report = [&](const char* name, const bench::BenchTiming& timing,
                    const bench::BenchTiming& baseline) {
    std::printf("  %-18s %12.0f ops/s   %.2fx vs std\n", name,
                timing.ops_per_sec, timing.ops_per_sec / baseline.ops_per_sec);
    json.Add(name, timing, 1);
  };
  report("count/std", std_count, std_count);
  report("count/flat", flat_count, std_count);
  report("intern/build", intern_build, std_count);
  report("count/interned", interned_count, std_count);
  report("lookup/std", std_lookup, std_lookup);
  report("lookup/flat", flat_lookup, std_lookup);

  // -- SIMD group probe vs portable scalar groups (miss-heavy) --
  bench::Banner("Group probing: SIMD vs portable, miss-heavy integer probes");
  std::printf("  this build's group policy: %s\n\n", FlatHashSimdName());
  constexpr size_t kProbeDistinct = 200000;
  constexpr size_t kProbeDraws = 2000000;
  FlatHashMap<uint64_t, uint64_t> simd_table;
  FlatHashMap<uint64_t, uint64_t, FlatHash, FlatEq,
              flat_internal::GroupPortable>
      portable_table;
  std::vector<uint64_t> inserted_keys(kProbeDistinct);
  for (size_t i = 0; i < kProbeDistinct; ++i) {
    uint64_t key = rng();
    inserted_keys[i] = key;
    simd_table[key] = i;
    portable_table[key] = i;
  }
  // 3 of 4 probes are random 64-bit keys (virtually all miss), 1 of 4 hits.
  std::vector<uint64_t> probes(kProbeDraws);
  for (size_t i = 0; i < kProbeDraws; ++i) {
    probes[i] = i % 4 == 0 ? inserted_keys[rng.NextBounded(kProbeDistinct)]
                           : rng();
  }
  bench::BenchTiming simd_probe =
      bench::MedianOpsPerSec(kProbeDraws, kWarmups, kRepeats, [&] {
        uint64_t hits = 0;
        for (uint64_t key : probes) hits += simd_table.contains(key);
        checksum_sink += static_cast<double>(hits);
      });
  bench::BenchTiming portable_probe =
      bench::MedianOpsPerSec(kProbeDraws, kWarmups, kRepeats, [&] {
        uint64_t hits = 0;
        for (uint64_t key : probes) hits += portable_table.contains(key);
        checksum_sink += static_cast<double>(hits);
      });
  double probe_ratio = simd_probe.ops_per_sec / portable_probe.ops_per_sec;
  std::printf("  %-18s %12.0f ops/s\n", "probe/portable",
              portable_probe.ops_per_sec);
  std::printf("  %-18s %12.0f ops/s   %.2fx vs portable\n", "probe/simd",
              simd_probe.ops_per_sec, probe_ratio);
  json.Add("probe/portable", portable_probe, 1);
  json.Add("probe/simd", simd_probe, 1);

  double best_count =
      std::max(flat_count.ops_per_sec, interned_count.ops_per_sec);
  double speedup = best_count / std_count.ops_per_sec;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", speedup);
  bench::Banner("Speedup summary");
  bench::PaperVsMeasured("count path vs unordered_map<string,...>", ">= 2x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx",
                flat_lookup.ops_per_sec / std_lookup.ops_per_sec);
  bench::PaperVsMeasured("lookup path vs unordered_map<string,...>", "> 1x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", probe_ratio);
  bench::PaperVsMeasured("SIMD group probe vs portable (miss-heavy)",
                         ">= 1.2x", buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  // Hard gates: the ISSUE acceptance criteria.
  if (speedup < 2.0) {
    std::printf("\nFAIL: count-path speedup %.2fx below the 2x gate\n",
                speedup);
    return 1;
  }
  if (kFlatHashSimdGroups) {
    if (probe_ratio < 1.2) {
      std::printf("\nFAIL: SIMD probe %.2fx below the 1.2x gate\n",
                  probe_ratio);
      return 1;
    }
  } else {
    std::printf(
        "\nSKIP: SIMD probe gate — this build has no vector group policy "
        "(portable fallback), nothing to compare\n");
  }
  std::printf("\n(checksum %.0f)\n", checksum_sink > 0 ? 1.0 : 0.0);
  return 0;
}
