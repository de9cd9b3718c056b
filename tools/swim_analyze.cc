// swim_analyze: run the paper's full workload analysis over a trace.
//
//   swim_analyze <trace.csv|trace.stf1> [--on-error strict|skip|repair]
//                                         analyze a trace (format sniffed
//                                         from the magic bytes)
//   swim_analyze <trace> --stream         streaming analysis: STF1 columns
//                                         are consumed in place (no
//                                         materialization, no full-column
//                                         sorts); quantiles are GK-backed
//   swim_analyze <trace> --follow [--interval s] [--repeat n] [--out file]
//                                         tail a growing trace, updating
//                                         the streaming report in O(new
//                                         rows) per tick
//   swim_analyze --workload <name> [n]    analyze a generated paper
//                                         workload (optionally n jobs)
//
// Numeric arguments ([n], --interval, --repeat) are parsed whole and
// range-checked; anything else is a usage error naming it (exit 2).
//   swim_analyze --list                   list built-in workloads
//
// Output: the combined data/temporal/compute report (sections 4-6).
// With --on-error skip|repair, malformed CSV rows are dropped or patched
// and an ingest report goes to stderr instead of the load aborting.
// With --out, each report flush is atomic (temp file + rename), so a
// concurrent reader never sees a torn report.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "common/string_util.h"

#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: swim_analyze <trace.csv|trace.stf1> "
               "[--on-error strict|skip|repair] [--stream]\n"
               "       swim_analyze <trace> --follow [--interval seconds] "
               "[--repeat n] [--out file]\n"
               "       swim_analyze --workload <name> [jobs]\n"
               "       swim_analyze --list\n");
  return 2;
}

/// Writes `text` to `path` atomically: the bytes land in a sibling temp
/// file which is renamed over the target, so readers see either the old
/// report or the new one, never a partial flush.
bool WriteReportAtomic(const std::string& path, const std::string& text) {
  const std::string temp = path + ".tmp";
  std::FILE* out = std::fopen(temp.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", temp.c_str());
    return false;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  const bool flushed = std::fflush(out) == 0;
  std::fclose(out);
  if (!wrote || !flushed) {
    std::fprintf(stderr, "short write to %s\n", temp.c_str());
    std::remove(temp.c_str());
    return false;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s over %s\n", temp.c_str(),
                 path.c_str());
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

/// Emits the report to --out (atomically) or stdout.
bool EmitReport(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::printf("%s", text.c_str());
    std::fflush(stdout);
    return true;
  }
  return WriteReportAtomic(out_path, text);
}

struct AnalyzeFlags {
  swim::trace::ParseOptions parse_options;
  bool stream = false;
  bool follow = false;
  double interval_seconds = 1.0;
  /// Number of polls in follow mode; 0 = poll until interrupted.
  uint64_t repeat = 0;
  std::string out_path;
};

/// One-shot streaming analysis: the STF1 fast path consumes column spans in
/// place; CSV loads the trace and feeds its columns to the same analyzer.
int RunStream(const std::string& path, const AnalyzeFlags& flags) {
  using namespace swim;
  auto format = trace::SniffTraceFormat(path);
  if (!format.ok()) {
    std::fprintf(stderr, "%s\n", format.status().ToString().c_str());
    return 1;
  }
  core::StreamingAnalyzer analyzer;
  StatusOr<core::StreamingReport> report = InvalidArgumentError("no input");
  if (*format == trace::TraceFormat::kStf1) {
    auto view = trace::ColumnarTraceView::Open(path);
    if (!view.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                   view.status().ToString().c_str());
      return 1;
    }
    auto status = analyzer.ObserveColumns(*view, 0, view->job_count());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    report = analyzer.Report(&*view);
  } else {
    trace::ParseReport parse_report;
    auto loaded = trace::ReadTraceCsv(path, flags.parse_options, &parse_report);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (!parse_report.clean()) {
      std::fprintf(stderr, "%s\n", parse_report.ToString().c_str());
    }
    analyzer.SetMetadata(loaded->metadata());
    auto status = analyzer.ObserveColumns(loaded->columns(), 0, loaded->size());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    report = analyzer.Report(trace::DictionaryView(loaded->paths()));
  }
  if (!report.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  return EmitReport(flags.out_path, core::FormatStreamingReport(*report)) ? 0
                                                                          : 1;
}

/// Follow mode: poll the file, fold new rows, re-emit the report after
/// every tick that grew.
int RunFollow(const std::string& path, const AnalyzeFlags& flags) {
  using namespace swim;
  core::FollowOptions options;
  options.csv_parse = flags.parse_options;
  auto follower = core::TraceFollower::Open(path, options);
  if (!follower.ok()) {
    std::fprintf(stderr, "cannot follow %s: %s\n", path.c_str(),
                 follower.status().ToString().c_str());
    return 1;
  }
  uint64_t ticks = 0;
  while (true) {
    auto poll = follower->Poll();
    if (!poll.ok()) {
      // A torn producer state (mid-rewrite, truncated tail) is transient:
      // report it and retry at the next tick with the analyzer untouched.
      std::fprintf(stderr, "poll: %s\n", poll.status().ToString().c_str());
    } else if (poll->new_jobs > 0) {
      auto report = follower->Report();
      if (!report.ok()) {
        std::fprintf(stderr, "report: %s\n",
                     report.status().ToString().c_str());
      } else {
        std::string text = core::FormatStreamingReport(*report);
        std::fprintf(stderr, "[follow] +%zu jobs (%zu total)\n",
                     poll->new_jobs, poll->total_jobs);
        if (!EmitReport(flags.out_path, text)) return 1;
      }
    }
    ++ticks;
    if (flags.repeat > 0 && ticks >= flags.repeat) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(flags.interval_seconds));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 2) return Usage();
  std::string arg = argv[1];

  if (arg == "--list") {
    for (const auto& name : workloads::PaperWorkloadNames()) {
      auto spec = workloads::PaperWorkloadByName(name);
      std::printf("%-9s %8zu jobs, %4d machines, %d\n", name.c_str(),
                  spec->total_jobs, spec->metadata.machines,
                  spec->metadata.year);
    }
    return 0;
  }

  trace::Trace trace;
  if (arg == "--workload") {
    if (argc < 3) return Usage();
    auto spec = workloads::PaperWorkloadByName(argv[2]);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    workloads::GeneratorOptions options;
    if (argc > 3) {
      int64_t jobs = 0;
      if (!ParseInt64(argv[3], &jobs) || jobs < 1) {
        std::fprintf(stderr,
                     "swim_analyze: [jobs] must be a positive integer, "
                     "got '%s'\n",
                     argv[3]);
        return Usage();
      }
      options.job_count_override = static_cast<size_t>(jobs);
    } else if (spec->total_jobs > 100000) {
      std::fprintf(stderr, "(scaling %s to 100000 jobs; pass a job count "
                           "to override)\n",
                   argv[2]);
      options.job_count_override = 100000;
    }
    auto generated = workloads::GenerateTrace(*spec, options);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    trace = *std::move(generated);
  } else {
    AnalyzeFlags flags;
    for (int i = 2; i < argc; ++i) {
      std::string flag = argv[i];
      if (flag == "--stream") {
        flags.stream = true;
        continue;
      }
      if (flag == "--follow") {
        flags.follow = true;
        continue;
      }
      std::string value;
      size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        value = flag.substr(eq + 1);
        flag.resize(eq);
      } else {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
          return 2;
        }
        value = argv[++i];
      }
      if (flag == "--on-error") {
        auto mode = trace::ParseModeFromName(value);
        if (!mode.ok()) {
          std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
          return 2;
        }
        flags.parse_options.mode = *mode;
      } else if (flag == "--interval") {
        if (!ParseDouble(value, &flags.interval_seconds) ||
            !std::isfinite(flags.interval_seconds) ||
            !(flags.interval_seconds > 0.0)) {
          std::fprintf(stderr,
                       "--interval needs a finite positive number, got "
                       "'%s'\n",
                       value.c_str());
          return 2;
        }
      } else if (flag == "--repeat") {
        int64_t repeat = 0;
        if (!ParseInt64(value, &repeat) || repeat < 0) {
          std::fprintf(stderr,
                       "--repeat needs an integer in [0, %lld], got '%s'\n",
                       static_cast<long long>(
                           std::numeric_limits<int64_t>::max()),
                       value.c_str());
          return 2;
        }
        flags.repeat = static_cast<uint64_t>(repeat);
      } else if (flag == "--out") {
        flags.out_path = value;
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        return 2;
      }
    }
    if (flags.follow) return RunFollow(arg, flags);
    if (flags.stream) return RunStream(arg, flags);

    trace::ParseReport report;
    auto loaded = trace::ReadTraceAuto(arg, flags.parse_options, &report);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", arg.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (!report.clean()) {
      std::fprintf(stderr, "%s\n", report.ToString().c_str());
    }
    trace = *std::move(loaded);
  }

  auto report = core::AnalyzeWorkload(trace);
  if (!report.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", core::FormatReport(*report).c_str());
  return 0;
}
