// swim_analyze: run the paper's full workload analysis over a trace.
//
//   swim_analyze <trace.csv|trace.stf1> [--on-error strict|skip|repair]
//                                         analyze a trace (format sniffed
//                                         from the magic bytes)
//   swim_analyze <trace> --stream         streaming analysis: the file is
//                                         read once by a trace follower
//                                         drained to its end (STF1 columns
//                                         in place, CSV parsed as in a
//                                         batch load); quantiles are
//                                         GK-backed
//   swim_analyze <trace> --follow [--interval s] [--repeat n] [--out file]
//                                         tail a growing trace with the
//                                         same follower, updating the
//                                         streaming report in O(new rows)
//                                         per tick; a CSV line counts once
//                                         its '\n' is written
//   swim_analyze --workload <name> [jobs] analyze a generated paper
//                                         workload, optionally at [jobs]
//   swim_analyze --list                   list built-in workloads
//
// Arguments follow the common/flags grammar: numeric ones ([jobs],
// --interval, --repeat) are parsed whole and range-checked, and any bad or
// extra argument is a usage error naming it (exit 2).
//
// Output: the combined data/temporal/compute report (sections 4-6).
// With --on-error skip|repair, malformed CSV rows are dropped or patched
// and an ingest report goes to stderr instead of the load aborting (under
// --follow, one per poll that flagged rows, with file line numbers).
// With --out, each report flush is atomic (temp file + rename), so a
// concurrent reader never sees a torn report.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "common/flags.h"

#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace {

constexpr char kUsage[] =
    "usage: swim_analyze <trace.csv|trace.stf1> "
    "[--on-error strict|skip|repair] [--stream]\n"
    "       swim_analyze <trace> --follow [--interval seconds] "
    "[--repeat n] [--out file]\n"
    "       swim_analyze --workload <name> [jobs]\n"
    "       swim_analyze --list\n";

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

/// --stream: one TraceFollower drained to the end of the file. Errors read
/// as a batch load's: a file that cannot be loaded is named, and the ingest
/// of rows read is shown even when the analyzer then rejects them.
int DrainAndReport(const std::string& path, const AnalyzeFlags& flags) {
  using namespace swim;
  core::FollowOptions options;
  options.csv_parse = flags.parse_options;
  auto follower = core::TraceFollower::Open(path, options);
  if (!follower.ok()) {
    std::fprintf(stderr, "%s\n", follower.status().ToString().c_str());
    return 1;
  }
  auto poll = follower->Drain();
  const trace::ParseReport* ingest = follower->last_ingest();
  if (ingest == nullptr) {
    const bool stf1 = follower->format() == trace::TraceFormat::kStf1;
    std::fprintf(stderr, "cannot %s %s: %s\n", stf1 ? "open" : "load",
                 path.c_str(), poll.status().ToString().c_str());
    return 1;
  }
  if (!ingest->clean()) {
    std::fprintf(stderr, "%s\n", ingest->ToString().c_str());
  }
  if (!poll.ok()) {
    std::fprintf(stderr, "%s\n", poll.status().ToString().c_str());
    return 1;
  }
  auto report = follower->Report();
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
    } else if (!poll->ingest.clean()) {
      std::fprintf(stderr, "%s\n", poll->ingest.ToString().c_str());
    }
    if (poll.ok() && poll->new_jobs > 0) {
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
  // The first argument picks the grammar: --list, --workload or a trace.
  const std::string mode = argc > 1 ? argv[1] : "";
  const bool list = mode == "--list";
  const bool workload = mode == "--workload";
  std::string workload_name;
  workloads::GeneratorOptions options;
  std::string path;
  AnalyzeFlags settings;
  flags::FlagSet cli;
  if (workload) {
    cli.Add("<name>", &workload_name)
        .Add("[jobs]", &options.job_count_override, 1);
  } else if (!list) {
    cli.Add("<trace>", &path)
        .Add("--on-error", &settings.parse_options.mode,
             trace::ParseModeFromName)
        .Add("--stream", &settings.stream)
        .Add("--follow", &settings.follow)
        .Add("--interval",
             [&](std::string_view value) -> Status {
               SWIM_RETURN_IF_ERROR(
                   flags::ParseFinite(value, &settings.interval_seconds));
               if (settings.interval_seconds > 0.0) return Status::Ok();
               return InvalidArgumentError("needs a positive number, got '" +
                                           std::string(value) + "'");
             })
        .Add("--repeat", &settings.repeat)
        .Add("--out", &settings.out_path);
  }
  const int shift = list || workload ? 1 : 0;
  Status parsed = cli.Parse(argc - shift, argv + shift);
  if (!parsed.ok()) return flags::UsageError(parsed, kUsage);

  if (list) {
    for (const auto& name : workloads::PaperWorkloadNames()) {
      auto spec = workloads::PaperWorkloadByName(name);
      std::printf("%-9s %8zu jobs, %4d machines, %d\n", name.c_str(),
                  spec->total_jobs, spec->metadata.machines,
                  spec->metadata.year);
    }
    return 0;
  }

  trace::Trace trace;
  if (workload) {
    auto spec = workloads::PaperWorkloadByName(workload_name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (options.job_count_override == 0 && spec->total_jobs > 100000) {
      std::fprintf(stderr, "(scaling %s to 100000 jobs; pass a job count "
                           "to override)\n",
                   workload_name.c_str());
      options.job_count_override = 100000;
    }
    auto generated = workloads::GenerateTrace(*spec, options);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    trace = *std::move(generated);
  } else {
    if (settings.follow) return RunFollow(path, settings);
    if (settings.stream) return DrainAndReport(path, settings);

    trace::ParseReport report;
    auto loaded = trace::ReadTraceAuto(path, settings.parse_options, &report);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
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
