// bench_streaming: the zero-materialization analysis fast path and the
// follow-mode incremental tick.
//
//   bench_streaming [--jobs N] [--json out.json]
//
// Generates an FB-2010-shaped trace (default 1M jobs), writes it as STF1,
// and times:
//
//   batch_report          LoadTraceColumnar + AnalyzeWorkload — the exact
//                         batch report from the same columns (k-means
//                         and full-column sorts included)
//   streaming_report      ColumnarTraceView::Open + ObserveColumns + Report
//                         — column spans consumed in place, sketches
//                         instead of full-column sorts, no k-means
//   full_reanalysis       one-shot streaming pass over the grown file (the
//                         work a naive follower redoes every tick)
//   follow_tick           TraceFollower::Poll + Report after the file grew
//                         by `kGrowth` jobs — O(new batch) work
//
// Hard gates (CI bench-smoke):
//   - streaming_report no slower than batch_report on the same file (the
//     ratio row is informational: the batch report reads columns too);
//   - follow_tick >= 10x faster than full_reanalysis.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "trace/columnar.h"

namespace {

using namespace swim;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
  if (path.back() != '/') path.push_back('/');
  return path + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  SWIM_CHECK(out != nullptr);
  SWIM_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size());
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  size_t jobs = 1000000;
  const std::string json_path = bench::ParseBenchFlags(
      argc, argv, flags::FlagSet().Add("--jobs", &jobs, 1));
  // The follow tick consumes the last 1% of the trace (at least one job).
  const size_t growth = std::max<size_t>(1, jobs / 100);
  const size_t prefix_jobs = jobs - growth;

  bench::Banner("Streaming: generating FB-2010 at " + std::to_string(jobs) +
                " jobs");
  trace::Trace full = bench::BenchTrace("FB-2010", jobs);

  const std::string full_path = TempPath("bench_streaming_full.stf1");
  const std::string grow_path = TempPath("bench_streaming_grow.stf1");
  SWIM_CHECK_OK(trace::WriteTraceColumnar(full, full_path));
  const std::string full_bytes = [&] {
    std::string bytes = trace::TraceToColumnarBytes(full);
    return bytes;
  }();
  const std::string prefix_bytes = [&] {
    trace::Trace prefix;
    prefix.mutable_metadata() = full.metadata();
    for (size_t i = 0; i < prefix_jobs; ++i) prefix.AddJob(full.JobAt(i));
    return trace::TraceToColumnarBytes(prefix);
  }();

  bench::BenchJsonWriter json;
  char buffer[160];

  // --- Gate A: one-shot report, batch vs streaming ------------------------
  bench::Banner("One-shot report paths");
  auto batch_report = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto trace = trace::LoadTraceColumnar(full_path);
    SWIM_CHECK_OK(trace.status());
    auto report = core::AnalyzeWorkload(*trace);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("batch_report", batch_report, 0);
  std::printf("  batch_report:        %.3f s (%.0f jobs/s)\n",
              batch_report.median_seconds, batch_report.ops_per_sec);

  auto streaming_report = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto view = trace::ColumnarTraceView::Open(full_path);
    SWIM_CHECK_OK(view.status());
    core::StreamingAnalyzer analyzer;
    SWIM_CHECK_OK(analyzer.ObserveColumns(*view, 0, view->job_count()));
    auto report = analyzer.Report(&*view);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("streaming_report", streaming_report, 0);
  std::printf("  streaming_report:    %.3f s (%.0f jobs/s)\n",
              streaming_report.median_seconds, streaming_report.ops_per_sec);

  // --- Gate B: follow tick vs full re-analysis ----------------------------
  bench::Banner("Follow tick (" + std::to_string(growth) + " new jobs)");
  auto full_reanalysis = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto view = trace::ColumnarTraceView::Open(full_path);
    SWIM_CHECK_OK(view.status());
    core::StreamingAnalyzer analyzer;
    SWIM_CHECK_OK(analyzer.ObserveColumns(*view, 0, view->job_count()));
    auto report = analyzer.Report(&*view);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("full_reanalysis", full_reanalysis, 0);

  // A tick cannot be repeated in place (the poll consumes the growth), so
  // each measured run rebuilds the scenario untimed: seed the follower on
  // the prefix snapshot, grow the file, then time exactly Poll + Report.
  std::vector<double> tick_seconds;
  for (int run = 0; run < 3; ++run) {
    WriteFile(grow_path, prefix_bytes);
    auto follower = core::TraceFollower::Open(grow_path);
    SWIM_CHECK_OK(follower.status());
    auto seed = follower->Poll();
    SWIM_CHECK_OK(seed.status());
    SWIM_CHECK(seed->total_jobs == prefix_jobs);
    WriteFile(grow_path, full_bytes);
    const auto start = std::chrono::steady_clock::now();
    auto tick = follower->Poll();
    SWIM_CHECK_OK(tick.status());
    SWIM_CHECK(tick->new_jobs == growth);
    auto report = follower->Report();
    SWIM_CHECK_OK(report.status());
    tick_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  std::sort(tick_seconds.begin(), tick_seconds.end());
  bench::BenchTiming follow_tick;
  follow_tick.median_seconds = tick_seconds[(tick_seconds.size() - 1) / 2];
  follow_tick.ops_per_sec =
      static_cast<double>(growth) / std::max(follow_tick.median_seconds, 1e-12);
  follow_tick.repeats = 3;
  follow_tick.warmups = 0;
  json.Add("follow_tick", follow_tick, 0);
  std::printf("  full_reanalysis: %.3f s   follow_tick: %.4f s\n",
              full_reanalysis.median_seconds, follow_tick.median_seconds);

  // --- Ratios + gates -----------------------------------------------------
  const double stream_speedup =
      batch_report.median_seconds /
      std::max(streaming_report.median_seconds, 1e-12);
  const double tick_speedup = full_reanalysis.median_seconds /
                              std::max(follow_tick.median_seconds, 1e-12);
  json.Add("streaming_speedup_vs_batch", stream_speedup, 0);
  json.Add("follow_tick_speedup_vs_full", tick_speedup, 0);

  bench::Banner("Speedup summary");
  std::snprintf(buffer, sizeof(buffer), "%.1fx", stream_speedup);
  bench::PaperVsMeasured("streaming report vs batch report", ">= 1x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.0fx", tick_speedup);
  bench::PaperVsMeasured("follow tick vs full re-analysis", ">= 10x", buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::remove(full_path.c_str());
  std::remove(grow_path.c_str());

  if (stream_speedup < 1.0) {
    std::printf("\nFAIL: streaming report slower than the batch report "
                "(%.2fx)\n",
                stream_speedup);
    return 1;
  }
  if (tick_speedup < 10.0) {
    std::printf("\nFAIL: follow tick %.1fx below the 10x gate vs full "
                "re-analysis\n",
                tick_speedup);
    return 1;
  }
  return 0;
}
