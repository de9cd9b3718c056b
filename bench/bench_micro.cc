// Library microbenchmarks (google-benchmark): throughput of the hot paths
// a downstream user exercises - trace generation, analysis kernels, cache
// simulation, k-means, and the replay engine.
#include <benchmark/benchmark.h>

#include "core/analysis/compute.h"
#include "frameworks/hive.h"
#include "frameworks/workflow.h"
#include "storage/tiered.h"
#include "stats/burstiness.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "sim/replay.h"
#include "stats/kmeans.h"
#include "stats/zipf.h"
#include "storage/access_stream.h"
#include "storage/cache.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace {

using namespace swim;

trace::Trace SharedTrace(size_t jobs) {
  auto spec = workloads::PaperWorkloadByName("CC-b");
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  auto trace = workloads::GenerateTrace(*spec, options);
  SWIM_CHECK_OK(trace.status());
  return *std::move(trace);
}

void BM_GenerateTrace(benchmark::State& state) {
  auto spec = workloads::PaperWorkloadByName("CC-b");
  workloads::GeneratorOptions options;
  options.job_count_override = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto trace = workloads::GenerateTrace(*spec, options);
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateTrace)->Arg(1000)->Arg(10000);

void BM_DataSizeCdfs(benchmark::State& state) {
  trace::Trace t = SharedTrace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto cdfs = core::ComputeDataSizeCdfs(t);
    benchmark::DoNotOptimize(cdfs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataSizeCdfs)->Arg(10000);

void BM_ReaccessAnalysis(benchmark::State& state) {
  trace::Trace t = SharedTrace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto intervals = core::ComputeReaccessIntervals(t);
    benchmark::DoNotOptimize(intervals);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReaccessAnalysis)->Arg(10000);

void BM_Burstiness(benchmark::State& state) {
  trace::Trace t = SharedTrace(10000);
  for (auto _ : state) {
    auto report = core::ComputeBurstiness(t);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_Burstiness);

void BM_KMeansClassify(benchmark::State& state) {
  trace::Trace t = SharedTrace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = core::ClassifyJobs(t);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeansClassify)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_ZipfSampler(benchmark::State& state) {
  stats::ZipfSampler sampler(100000, 5.0 / 6.0);
  Pcg32 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSampler);

void BM_LruCacheReplay(benchmark::State& state) {
  trace::Trace t = SharedTrace(10000);
  auto accesses = storage::ExtractAccesses(t);
  for (auto _ : state) {
    storage::LruCache cache(1e13);
    storage::ReplayAccesses(accesses, cache);
    benchmark::DoNotOptimize(cache.stats().hits);
  }
  state.SetItemsProcessed(state.iterations() * accesses.size());
}
BENCHMARK(BM_LruCacheReplay);

void BM_BuildModel(benchmark::State& state) {
  trace::Trace t = SharedTrace(10000);
  for (auto _ : state) {
    auto model = core::BuildModel(t);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_BuildModel)->Unit(benchmark::kMillisecond);

void BM_Synthesize(benchmark::State& state) {
  trace::Trace t = SharedTrace(10000);
  auto model = core::BuildModel(t);
  SWIM_CHECK_OK(model.status());
  core::SynthesisOptions options;
  options.job_count = 10000;
  for (auto _ : state) {
    auto synth = core::SynthesizeTrace(*model, options);
    benchmark::DoNotOptimize(synth);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Synthesize)->Unit(benchmark::kMillisecond);

void BM_ReplaySimulation(benchmark::State& state) {
  trace::Trace t = SharedTrace(static_cast<size_t>(state.range(0)));
  sim::ReplayOptions options;
  options.cluster.nodes = 300;
  options.scheduler = "fair";
  for (auto _ : state) {
    auto result = sim::ReplayTrace(t, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReplaySimulation)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_HiveCompile(benchmark::State& state) {
  frameworks::HiveQuerySpec spec;
  spec.kind = frameworks::HiveQuerySpec::Kind::kInsert;
  spec.joins = 2;
  spec.group_by = true;
  for (auto _ : state) {
    auto chain = frameworks::CompileHiveQuery(spec);
    benchmark::DoNotOptimize(chain);
  }
}
BENCHMARK(BM_HiveCompile);

void BM_WorkflowGeneration(benchmark::State& state) {
  frameworks::WorkflowGeneratorOptions options;
  options.workflows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto wt = frameworks::GenerateWorkflowTrace(options);
    benchmark::DoNotOptimize(wt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorkflowGeneration)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_TieredReads(benchmark::State& state) {
  trace::Trace t = SharedTrace(10000);
  auto accesses = storage::ExtractAccesses(t);
  storage::TierConfig config;
  config.memory_capacity_bytes = 1e13;
  for (auto _ : state) {
    auto stats = storage::SimulateTieredReads(accesses, config);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * accesses.size());
}
BENCHMARK(BM_TieredReads);

void BM_BurstinessProfile(benchmark::State& state) {
  trace::Trace t = SharedTrace(20000);
  auto series = core::ComputeSubmissionSeries(t).task_seconds_per_hour;
  for (auto _ : state) {
    stats::BurstinessProfile profile(series);
    benchmark::DoNotOptimize(profile.PeakToMedian());
  }
}
BENCHMARK(BM_BurstinessProfile);

}  // namespace

BENCHMARK_MAIN();
