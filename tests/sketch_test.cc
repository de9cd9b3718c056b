// Tests for the streaming sketch layer: GK quantiles against the
// SortedStats oracle, Space-Saving against exact counts, sliding-window
// exactness, and the online Zipf fit against the batch fit.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "stats/descriptive.h"
#include "stats/sketch/gk_quantile.h"
#include "stats/sketch/sliding_window.h"
#include "stats/sketch/space_saving.h"
#include "stats/sketch/zipf_online.h"
#include "stats/zipf.h"

namespace swim::stats {
namespace {

// --- GK quantile sketch ---------------------------------------------------

/// Asserts the GK answer for `p` sits within `epsilon * n` ranks of the
/// target rank in the exact sorted sample — the sketch's advertised
/// guarantee, checked against the oracle the analysis pipeline trusts.
void ExpectWithinRankEpsilon(const GkQuantileSketch& gk,
                             const std::vector<double>& sorted, double p,
                             double epsilon) {
  const double n = static_cast<double>(sorted.size());
  const double answer = gk.Quantile(p);
  // Rank range occupied by `answer` in the sorted sample (1-based).
  const auto lo_it = std::lower_bound(sorted.begin(), sorted.end(), answer);
  const auto hi_it = std::upper_bound(sorted.begin(), sorted.end(), answer);
  const double rank_lo = static_cast<double>(lo_it - sorted.begin()) + 1.0;
  const double rank_hi = static_cast<double>(hi_it - sorted.begin());
  const double target = 1.0 + p * (n - 1.0);
  const double margin = epsilon * n + 1.0;
  EXPECT_LE(rank_lo, target + margin)
      << "p=" << p << " answer=" << answer << " n=" << n;
  EXPECT_GE(rank_hi, target - margin)
      << "p=" << p << " answer=" << answer << " n=" << n;
}

std::vector<double> SortedCopy(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(GkQuantileTest, ExactOnSmallSamples) {
  GkQuantileSketch gk(0.01);
  EXPECT_TRUE(gk.empty());
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) gk.Add(v);
  EXPECT_EQ(gk.count(), 5u);
  // With 5 values and eps*n << 1 every quantile must be rank-exact.
  EXPECT_EQ(gk.Quantile(0.0), 1.0);
  EXPECT_EQ(gk.Quantile(0.5), 3.0);
  EXPECT_EQ(gk.Quantile(1.0), 5.0);
}

TEST(GkQuantileTest, EpsilonBoundAcrossDistributions) {
  const double kEps = 0.005;
  const size_t kN = 200000;
  Pcg32 rng(42, 7);
  struct Case {
    const char* name;
    std::vector<double> values;
  };
  std::vector<Case> cases;
  {
    Case uniform{"uniform", {}};
    for (size_t i = 0; i < kN; ++i) uniform.values.push_back(rng.NextDouble());
    cases.push_back(std::move(uniform));
  }
  {
    // Log-normal-ish heavy tail: the shape of per-job bytes in the paper.
    Case heavy{"heavy-tail", {}};
    for (size_t i = 0; i < kN; ++i) {
      heavy.values.push_back(std::pow(10.0, rng.NextDouble(0.0, 12.0)));
    }
    cases.push_back(std::move(heavy));
  }
  {
    // Many ties: durations rounded to whole seconds.
    Case ties{"ties", {}};
    for (size_t i = 0; i < kN; ++i) {
      ties.values.push_back(static_cast<double>(rng.NextBounded(100)));
    }
    cases.push_back(std::move(ties));
  }
  {
    Case sorted_input{"sorted", {}};
    for (size_t i = 0; i < kN; ++i) {
      sorted_input.values.push_back(static_cast<double>(i));
    }
    cases.push_back(std::move(sorted_input));
  }
  for (const Case& c : cases) {
    GkQuantileSketch gk(kEps);
    for (double v : c.values) gk.Add(v);
    const std::vector<double> sorted = SortedCopy(c.values);
    for (double p : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      SCOPED_TRACE(c.name);
      ExpectWithinRankEpsilon(gk, sorted, p, kEps);
    }
    // Memory actually stays sketch-sized, not sample-sized.
    EXPECT_LT(gk.TupleCount(), 8.0 / kEps) << c.name;
  }
}

TEST(GkQuantileTest, MergePreservesEpsilonBound) {
  const double kEps = 0.005;
  Pcg32 rng(9, 3);
  std::vector<double> all;
  GkQuantileSketch merged(kEps);
  // 40 shards of uneven sizes, folded in order — the analyzer's chunk
  // pattern across many follow-mode batches.
  for (int shard = 0; shard < 40; ++shard) {
    GkQuantileSketch part(kEps);
    const size_t count = 1000 + 137 * static_cast<size_t>(shard);
    for (size_t i = 0; i < count; ++i) {
      const double v = std::pow(10.0, rng.NextDouble(0.0, 9.0));
      part.Add(v);
      all.push_back(v);
    }
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count(), all.size());
  const std::vector<double> sorted = SortedCopy(all);
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    ExpectWithinRankEpsilon(merged, sorted, p, kEps);
  }
}

TEST(GkQuantileTest, MergeOrderAndChunkingAreDeterministic) {
  // The same values chunked the same way always fold to the same sketch —
  // the property the analyzer's fixed-grain chunking leans on for
  // thread-count-independent output.
  Pcg32 rng(4, 4);
  std::vector<double> values;
  for (size_t i = 0; i < 50000; ++i) values.push_back(rng.NextDouble());
  auto build = [&values]() {
    GkQuantileSketch total(0.005);
    for (size_t chunk = 0; chunk < values.size(); chunk += 4096) {
      GkQuantileSketch part(0.005);
      const size_t end = std::min(values.size(), chunk + 4096);
      for (size_t i = chunk; i < end; ++i) part.Add(values[i]);
      total.Merge(part);
    }
    return total;
  };
  GkQuantileSketch a = build();
  GkQuantileSketch b = build();
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    ASSERT_EQ(a.Quantile(p), b.Quantile(p)) << p;
  }
}

TEST(GkQuantileTest, MergeWithEmptyAndSelf) {
  GkQuantileSketch gk(0.01);
  for (int i = 0; i < 1000; ++i) gk.Add(static_cast<double>(i));
  GkQuantileSketch empty(0.01);
  gk.Merge(empty);
  EXPECT_EQ(gk.count(), 1000u);
  empty.Merge(gk);
  EXPECT_EQ(empty.count(), 1000u);
  gk.Merge(gk);  // self-merge doubles the mass without corrupting
  EXPECT_EQ(gk.count(), 2000u);
  const std::vector<double> sorted_once = [] {
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i) v.push_back(static_cast<double>(i));
    return v;
  }();
  // Self-merged median still lands mid-range.
  EXPECT_NEAR(gk.Quantile(0.5), 500.0, 0.02 * 2000.0);
  (void)sorted_once;
}

// --- Space-Saving ---------------------------------------------------------

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSavingSketch sketch(16);
  for (uint64_t k = 0; k < 10; ++k) {
    for (uint64_t i = 0; i <= k; ++i) sketch.Add(k);
  }
  auto top = sketch.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 9u);
  EXPECT_EQ(top[0].count, 10u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 8u);
  EXPECT_EQ(top[2].key, 7u);
  EXPECT_EQ(sketch.MinCount(), 0u);  // not full yet
}

TEST(SpaceSavingTest, GuaranteesOnZipfStream) {
  // A Zipf(1.0) stream over 10k keys tracked with only 64 slots: every
  // reported count must over-approximate the truth by at most its error
  // bound, and genuinely heavy keys must be present.
  Pcg32 rng(123, 5);
  const size_t kKeys = 10000;
  const size_t kStream = 400000;
  std::vector<double> weights(kKeys);
  double total_weight = 0.0;
  for (size_t k = 0; k < kKeys; ++k) {
    weights[k] = 1.0 / static_cast<double>(k + 1);
    total_weight += weights[k];
  }
  std::vector<double> cumulative(kKeys);
  double acc = 0.0;
  for (size_t k = 0; k < kKeys; ++k) {
    acc += weights[k] / total_weight;
    cumulative[k] = acc;
  }
  SpaceSavingSketch sketch(64);
  std::map<uint64_t, uint64_t> exact;
  for (size_t i = 0; i < kStream; ++i) {
    const double u = rng.NextDouble();
    const size_t key = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    sketch.Add(key);
    ++exact[key];
  }
  EXPECT_EQ(sketch.total_weight(), kStream);
  for (const auto& hitter : sketch.TopK(64)) {
    const uint64_t truth = exact.count(hitter.key) ? exact[hitter.key] : 0;
    EXPECT_GE(hitter.count, truth);                 // never underestimates
    EXPECT_LE(hitter.count - hitter.error, truth);  // error bound honest
  }
  // Any key with true count above N/capacity must be tracked.
  const uint64_t threshold = kStream / 64;
  auto top = sketch.TopK(64);
  for (const auto& [key, count] : exact) {
    if (count <= threshold) continue;
    const bool present =
        std::any_of(top.begin(), top.end(),
                    [key = key](const SpaceSavingSketch::HeavyHitter& h) {
                      return h.key == key;
                    });
    EXPECT_TRUE(present) << "heavy key " << key << " (count " << count
                         << ") evicted";
  }
  // The top of the ranking is exact for a skew this strong: key 0 leads.
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key, 0u);
}

TEST(SpaceSavingTest, DeterministicVictimSelection) {
  auto run = []() {
    SpaceSavingSketch sketch(4);
    const uint64_t stream[] = {1, 2, 3, 4, 5, 6, 5, 5, 7, 8, 2, 2, 9};
    for (uint64_t k : stream) sketch.Add(k);
    return sketch.TopK(4);
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

// --- Sliding window -------------------------------------------------------

TEST(SlidingWindowTest, ExactWithinWindow) {
  SlidingWindowSeries window(3600.0, 4);
  window.Observe(0.0, 1.0);
  window.Observe(1800.0, 2.0);   // same bucket
  window.Observe(3600.0, 5.0);   // next bucket
  window.Observe(10800.0, 7.0);  // bucket 3
  const std::vector<double> live = window.Window();
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(live[0], 3.0);
  EXPECT_EQ(live[1], 5.0);
  EXPECT_EQ(live[2], 0.0);
  EXPECT_EQ(live[3], 7.0);
  EXPECT_EQ(window.dropped_stale(), 0u);
}

TEST(SlidingWindowTest, OldBucketsFallOff) {
  SlidingWindowSeries window(1.0, 3);
  window.Observe(0.0, 1.0);
  window.Observe(1.0, 2.0);
  window.Observe(2.0, 3.0);
  window.Observe(5.0, 9.0);  // advances past buckets 0-2
  const std::vector<double> live = window.Window();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], 0.0);  // bucket 3: empty
  EXPECT_EQ(live[1], 0.0);  // bucket 4: empty
  EXPECT_EQ(live[2], 9.0);  // bucket 5
  // A stale observation (before the live window) is dropped and counted.
  window.Observe(1.5, 100.0);
  EXPECT_EQ(window.dropped_stale(), 1u);
  EXPECT_EQ(window.Window()[2], 9.0);
}

TEST(SlidingWindowTest, PeakToMedianMatchesBatchProfileOnWindow) {
  SlidingWindowSeries window(3600.0, 168);
  std::vector<double> reference;
  Pcg32 rng(77, 1);
  for (size_t hour = 0; hour < 168; ++hour) {
    const double value = 1.0 + rng.NextBounded(50);
    window.Observe(static_cast<double>(hour) * 3600.0 + 12.0, value);
    reference.push_back(value);
  }
  BurstinessProfile batch(reference);
  EXPECT_DOUBLE_EQ(window.PeakToMedian(), batch.PeakToMedian());
}

// --- Online Zipf ----------------------------------------------------------

TEST(OnlineZipfTest, MatchesBatchFitExactly) {
  // The streaming tracker must run the identical operations as the batch
  // popularity analysis: nonzero counts in id order, sorted descending,
  // FitZipf. Byte-identical outputs, not merely close ones.
  Pcg32 rng(5, 9);
  OnlineZipf tracker;
  std::vector<uint64_t> counts(500, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint32_t id =
        static_cast<uint32_t>(rng.NextBounded(counts.size()) *
                              rng.NextDouble() * rng.NextDouble());
    tracker.Add(id);
    ++counts[id];
  }
  // Batch reference: identical op sequence.
  std::vector<double> frequencies;
  for (uint64_t c : counts) {
    if (c > 0) frequencies.push_back(static_cast<double>(c));
  }
  std::sort(frequencies.begin(), frequencies.end(), std::greater<double>());
  ZipfFitResult batch = FitZipf(frequencies);

  OnlineZipf::Snapshot snapshot = tracker.Fit();
  ASSERT_EQ(snapshot.frequencies.size(), frequencies.size());
  for (size_t i = 0; i < frequencies.size(); ++i) {
    ASSERT_EQ(snapshot.frequencies[i], frequencies[i]) << i;
  }
  EXPECT_EQ(snapshot.fit.slope, batch.slope);
  EXPECT_EQ(snapshot.fit.intercept, batch.intercept);
  EXPECT_EQ(snapshot.fit.r_squared, batch.r_squared);
  EXPECT_EQ(snapshot.total_accesses, 100000u);
}

}  // namespace
}  // namespace swim::stats
