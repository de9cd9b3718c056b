// bench_ingest: trace ingest — CSV parse vs STF1 mmap open — plus the
// serialization paths.
//
//   bench_ingest [--jobs N] [--json out.json]
//
// Generates an FB-2010-shaped trace (default 1M jobs), writes it in both
// formats, and times:
//
//   csv_parse          full CSV file parse into a Trace (the old ingest)
//   stf1_open          ColumnarTraceView::Open — the mmap zero-copy open
//   stf1_open_cold     single-shot first open (includes page-cache faults)
//   stf1_column_scan   zero-copy sum over one mmap'd double column
//   stf1_load          full LoadTraceColumnar: read, checksums, row
//                      validation and the canonical-id checks; rows,
//                      interners and id vectors stay lazy
//   stf1_write / csv_write   serialization paths
//
// Hard gate (CI bench-smoke): stf1_open must be >= 20x faster than
// csv_parse — the format exists so interactive tools stop paying the parse
// tax on every run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/logging.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

using namespace swim;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
  if (path.back() != '/') path.push_back('/');
  return path + name;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  size_t jobs = 1000000;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  bench::Banner("Ingest: generating FB-2010 at " + std::to_string(jobs) +
                " jobs");
  trace::Trace t = bench::BenchTrace("FB-2010", jobs);
  const size_t n = t.size();
  // Warm the id indexes so every serialization row measures serialization,
  // not the first lazy index build.
  (void)t.name_ids();
  (void)t.input_path_ids();

  const std::string csv_path = TempPath("bench_ingest.csv");
  const std::string stf1_path = TempPath("bench_ingest.stf1");
  SWIM_CHECK_OK(trace::WriteTraceCsv(t, csv_path));
  SWIM_CHECK_OK(trace::WriteTraceColumnar(t, stf1_path));

  bench::BenchJsonWriter json;
  char buffer[64];

  // --- The gated pair -----------------------------------------------------
  bench::Banner("Open/parse paths");

  // Cold first: one single-shot Open before any warmup touches the file.
  // (True cold cache needs drop_caches; this still captures first-fault
  // cost after the write, which is the interactive-user experience.)
  double cold_seconds = 0.0;
  {
    auto start = std::chrono::steady_clock::now();
    auto view = trace::ColumnarTraceView::Open(stf1_path);
    cold_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    SWIM_CHECK_OK(view.status());
    SWIM_CHECK(view->job_count() == n);
  }
  bench::BenchTiming cold_row;
  cold_row.median_seconds = cold_seconds;
  cold_row.ops_per_sec = static_cast<double>(n) / std::max(cold_seconds, 1e-12);
  json.Add("stf1_open_cold", cold_row, 1);
  std::printf("  stf1_open_cold: %.3f ms single-shot\n", cold_seconds * 1e3);

  auto csv_parse = bench::MedianOpsPerSec(n, 1, 5, [&] {
    auto loaded = trace::ReadTraceCsv(csv_path);
    SWIM_CHECK_OK(loaded.status());
    SWIM_CHECK(loaded->size() == n);
  });
  json.Add("csv_parse", csv_parse, 1);
  std::printf("  csv_parse: %.3f s median (%.0f jobs/s)\n",
              csv_parse.median_seconds, csv_parse.ops_per_sec);

  auto stf1_open = bench::MedianOpsPerSec(n, 1, 5, [&] {
    auto view = trace::ColumnarTraceView::Open(stf1_path);
    SWIM_CHECK_OK(view.status());
    SWIM_CHECK(view->job_count() == n);
  });
  json.Add("stf1_open", stf1_open, 1);
  std::printf("  stf1_open: %.3f ms median\n",
              stf1_open.median_seconds * 1e3);

  // Zero-copy consumption: scan one mmap'd column without materializing.
  double scan_sink = 0.0;
  auto column_scan = bench::MedianOpsPerSec(n, 1, 5, [&] {
    auto view = trace::ColumnarTraceView::Open(stf1_path);
    SWIM_CHECK_OK(view.status());
    double sum = 0.0;
    for (double v : view->input_bytes()) sum += v;
    scan_sink += sum;
  });
  json.Add("stf1_column_scan", column_scan, 1);
  std::printf("  stf1_column_scan: %.3f ms median (open + full column)\n",
              column_scan.median_seconds * 1e3);

  auto stf1_load = bench::MedianOpsPerSec(n, 1, 5, [&] {
    auto loaded = trace::LoadTraceColumnar(stf1_path);
    SWIM_CHECK_OK(loaded.status());
    SWIM_CHECK(loaded->size() == n);
  });
  json.Add("stf1_load", stf1_load, 1);
  std::printf("  stf1_load: %.3f s median (checksums + validation, rows "
              "lazy, %.0f jobs/s)\n",
              stf1_load.median_seconds, stf1_load.ops_per_sec);

  // --- Serialization paths ------------------------------------------------
  bench::Banner("Write paths");
  size_t size_sink = 0;
  auto csv_write = bench::MedianOpsPerSec(n, 1, 3, [&] {
    size_sink += trace::TraceToCsv(t).size();
  });
  json.Add("csv_write", csv_write, 1);
  auto stf1_write = bench::MedianOpsPerSec(n, 1, 3, [&] {
    size_sink += trace::TraceToColumnarBytes(t).size();
  });
  json.Add("stf1_write", stf1_write, 1);
  std::printf("  csv_write: %.3f s, stf1_write: %.3f s\n",
              csv_write.median_seconds, stf1_write.median_seconds);

  // --- Ratios -------------------------------------------------------------
  const double open_speedup =
      csv_parse.median_seconds / std::max(stf1_open.median_seconds, 1e-12);
  const double load_speedup =
      csv_parse.median_seconds / std::max(stf1_load.median_seconds, 1e-12);
  json.Add("stf1_open_speedup_vs_csv_parse", open_speedup, 1);
  json.Add("stf1_load_speedup_vs_csv_parse", load_speedup, 1);

  bench::Banner("Speedup summary");
  std::snprintf(buffer, sizeof(buffer), "%.0fx", open_speedup);
  bench::PaperVsMeasured("STF1 open vs CSV parse", ">= 20x", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.2fx", load_speedup);
  bench::PaperVsMeasured("STF1 full load vs CSV parse", "> 1x", buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::remove(csv_path.c_str());
  std::remove(stf1_path.c_str());

  // Hard gate: the ISSUE acceptance criterion.
  if (open_speedup < 20.0) {
    std::printf("\nFAIL: STF1 open %.1fx below the 20x gate vs CSV parse\n",
                open_speedup);
    return 1;
  }
  std::printf("\n(sinks %.0f %zu)\n", scan_sink > 0 ? 1.0 : 0.0,
              size_sink > 0 ? size_t{1} : size_t{0});
  return 0;
}
