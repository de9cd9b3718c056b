// bench_fuzz_ingest: CI corpus driver for the trace-parser fuzzer.
//
//   bench_fuzz_ingest [--iterations N] [--seed S]
//
// Runs the deterministic CsvMutator against TraceFromCsv in all three
// parse modes for N iterations and enforces the parser contracts (never
// crash, report counts exact, accepted rows valid, repair >= skip). Every
// 100th mutated CSV is also written to a temp file in two appends split at
// a random byte and followed by a TraceFollower in skip mode (a poll after
// the first append, a drain after the second); its accepted rows and
// ingest counts must equal TraceFromCsv's. Then it runs the Stf1Mutator against TraceFromColumnarBytes for the same N and
// enforces the binary-reader contract (never crash, errors are structured,
// accepted traces validate). Any violation prints the reproducing (seed,
// iteration) pair and exits non-zero. The CI fuzz-smoke step runs this
// under ASan/UBSan; the gtest twin (trace_fuzz_test / columnar_test) runs
// a short version in every test pass.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "common/random.h"
#include "core/analysis/follow.h"
#include "trace/columnar.h"
#include "trace/csv_mutator.h"
#include "trace/job_record.h"
#include "trace/stf1_mutator.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace {

using namespace swim;

/// Same corpus shape as trace_fuzz_test, scaled up: quoted commas,
/// embedded newlines, escaped quotes, empty optionals, map-only jobs.
trace::Trace BaseTrace() {
  trace::Trace t;
  t.mutable_metadata().name = "FUZZ-CI";
  t.mutable_metadata().machines = 600;
  t.mutable_metadata().year = 2010;
  for (uint64_t id = 1; id <= 200; ++id) {
    trace::JobRecord job;
    job.job_id = id;
    switch (id % 4) {
      case 0: job.name = "pipeline,stage " + std::to_string(id); break;
      case 1: job.name = "ad hoc \"select\""; break;
      case 2: job.name = "line1\nline2"; break;
      default: job.name = ""; break;
    }
    job.submit_time = static_cast<double>(id);
    job.duration = 30.0;
    job.input_bytes = 1e6 * static_cast<double>(id % 17 + 1);
    job.shuffle_bytes = id % 3 == 0 ? 0.0 : 5e5;
    job.output_bytes = 1e5;
    job.map_tasks = 1 + static_cast<int64_t>(id % 9);
    job.reduce_tasks = id % 3 == 0 ? 0 : 1;
    job.map_task_seconds = 40.0;
    job.reduce_task_seconds = id % 3 == 0 ? 0.0 : 10.0;
    job.input_path = "hdfs://warehouse/t" + std::to_string(id % 7) +
                     (id % 4 == 0 ? ",part=0" : "");
    job.output_path = id % 5 == 0 ? "" : "out/" + std::to_string(id);
    t.AddJob(std::move(job));
  }
  return t;
}

[[noreturn]] void Fail(uint64_t seed, uint64_t iteration, const char* what) {
  std::fprintf(stderr,
               "FUZZ FAILURE: %s (reproduce: --seed %llu, iteration %llu)\n",
               what, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(iteration));
  std::exit(1);
}

bool ReportHolds(const trace::ParseReport& report, const trace::Trace& t) {
  if (report.accepted != t.size()) return false;
  if (report.total_rows != report.accepted + report.skipped) return false;
  size_t categorized = 0;
  for (size_t count : report.error_counts) categorized += count;
  if (categorized != report.flagged()) return false;
  if (report.diagnostics.size() + report.dropped_diagnostics !=
      report.flagged()) {
    return false;
  }
  for (const trace::JobRecord& job : t.jobs()) {
    if (!trace::ValidateJobRecord(job).empty()) return false;
  }
  return true;
}

bool WriteFile(const std::string& path, std::string_view bytes,
               const char* mode) {
  std::FILE* out = std::fopen(path.c_str(), mode);
  if (out == nullptr) return false;
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), out) ==
                     bytes.size();
  return std::fclose(out) == 0 && wrote;
}

/// Follows `csv` written in two appends split at `split`, in skip mode (a
/// poll after the first, a drain after the second), and checks the
/// follower ingested exactly what `batch` (TraceFromCsv in skip mode, with
/// `batch_report`) did. Returns false when the analyzer rejected rows a
/// batch load keeps (appended out of submit order, which a batch load
/// sorts), so there is nothing to compare.
bool FollowMatchesBatch(const std::string& path, const std::string& csv,
                        size_t split, const StatusOr<trace::Trace>& batch,
                        const trace::ParseReport& batch_report,
                        uint64_t seed, uint64_t iteration) {
  if (!WriteFile(path, std::string_view(csv).substr(0, split), "wb")) {
    Fail(seed, iteration, "cannot write the followed file");
  }
  core::FollowOptions options;
  options.csv_parse.mode = trace::ParseMode::kSkip;
  auto follower = core::TraceFollower::Open(path, options);
  if (!follower.ok()) Fail(seed, iteration, "cannot open the follower");
  trace::ParseReport got;
  bool load_failed = false;
  for (int step = 0; step < 2; ++step) {
    if (step == 1 &&
        !WriteFile(path, std::string_view(csv).substr(split), "ab")) {
      Fail(seed, iteration, "cannot append to the followed file");
    }
    auto poll = step == 0 ? follower->Poll() : follower->Drain();
    if (poll.ok()) {
      got.total_rows += poll->ingest.total_rows;
      got.accepted += poll->ingest.accepted;
      got.skipped += poll->ingest.skipped;
      got.repaired += poll->ingest.repaired;
      for (size_t i = 0; i < trace::kParseErrorKinds; ++i) {
        got.error_counts[i] += poll->ingest.error_counts[i];
      }
    } else if (follower->last_ingest() == nullptr) {
      load_failed = true;
    } else {
      return false;
    }
  }
  if (load_failed != !batch.ok()) {
    Fail(seed, iteration, "follower and batch load disagree on validity");
  }
  if (batch.ok() &&
      (got.accepted != batch->size() ||
       got.total_rows != batch_report.total_rows ||
       got.skipped != batch_report.skipped ||
       got.repaired != batch_report.repaired ||
       got.error_counts != batch_report.error_counts)) {
    Fail(seed, iteration, "follower ingest counts differ from the batch's");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t iterations = 100000;
  uint64_t seed = 2012;
  const Status parsed = flags::FlagSet()
                            .Add("--iterations", &iterations, 1)
                            .Add("--seed", &seed)
                            .Parse(argc, argv);
  if (!parsed.ok()) return flags::UsageError(parsed);

  const trace::Trace base_trace = BaseTrace();
  const std::string base = trace::TraceToCsv(base_trace);
  const trace::CsvMutator mutator(seed);
  const std::string follow_path =
      (std::filesystem::temp_directory_path() /
       ("bench_fuzz_ingest_" + std::to_string(getpid()) + ".csv"))
          .string();
  uint64_t strict_ok = 0, skip_rows = 0, repair_rows = 0;
  uint64_t followed = 0, follow_compared = 0;
  for (uint64_t iteration = 0; iteration < iterations; ++iteration) {
    const std::string mutated = mutator.Mutate(base, iteration);

    trace::ParseReport strict_report;
    auto strict = trace::TraceFromCsv(
        mutated, {trace::ParseMode::kStrict, 64, 0}, &strict_report);
    if (strict.ok()) {
      ++strict_ok;
      if (!strict_report.clean()) Fail(seed, iteration, "strict not clean");
    }

    trace::ParseReport skip_report;
    auto skipped = trace::TraceFromCsv(
        mutated, {trace::ParseMode::kSkip, 64, 0}, &skip_report);
    if (skipped.ok()) {
      if (!ReportHolds(skip_report, *skipped)) {
        Fail(seed, iteration, "skip report contract violated");
      }
      skip_rows += skipped->size();
    } else if (strict.ok()) {
      Fail(seed, iteration, "skip failed where strict succeeded");
    }
    if (iteration % 100 == 0 && mutated.size() > 1) {
      ++followed;
      Pcg32 rng(seed, iteration);
      const size_t split = 1 + rng.NextBounded(mutated.size() - 1);
      if (FollowMatchesBatch(follow_path, mutated, split, skipped,
                             skip_report, seed, iteration)) {
        ++follow_compared;
      }
    }

    trace::ParseReport repair_report;
    auto repaired = trace::TraceFromCsv(
        mutated, {trace::ParseMode::kRepair, 64, 0}, &repair_report);
    if (repaired.ok() != skipped.ok()) {
      Fail(seed, iteration, "repair/skip disagree on whole-file validity");
    }
    if (repaired.ok()) {
      if (!ReportHolds(repair_report, *repaired)) {
        Fail(seed, iteration, "repair report contract violated");
      }
      if (repaired->size() < skipped->size()) {
        Fail(seed, iteration, "repair kept fewer rows than skip");
      }
      repair_rows += repaired->size();
    }
  }

  std::printf(
      "fuzzed %llu mutated traces (seed %llu): %llu parsed strictly, "
      "%.1f rows/iter survived skip, %.1f rows/iter survived repair\n",
      static_cast<unsigned long long>(iterations),
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(strict_ok),
      static_cast<double>(skip_rows) / static_cast<double>(iterations),
      static_cast<double>(repair_rows) / static_cast<double>(iterations));
  std::remove(follow_path.c_str());
  std::printf(
      "followed %llu of them in two appends: %llu matched the batch load, "
      "%llu had rows the analyzer rejects (such as out of submit order)\n",
      static_cast<unsigned long long>(followed),
      static_cast<unsigned long long>(follow_compared),
      static_cast<unsigned long long>(followed - follow_compared));

  // Phase 2: the binary reader. The pristine encoding must round-trip;
  // every mutated encoding must either load a fully valid trace or fail
  // with a structured Status — never crash, never OOM on a lying header.
  const std::string stf1 = trace::TraceToColumnarBytes(base_trace);
  {
    auto pristine = trace::TraceFromColumnarBytes(stf1);
    if (!pristine.ok() || pristine->size() != base_trace.size()) {
      Fail(seed, 0, "pristine STF1 encoding failed to round-trip");
    }
  }
  const trace::Stf1Mutator stf1_mutator(seed);
  uint64_t stf1_ok = 0;
  for (uint64_t iteration = 0; iteration < iterations; ++iteration) {
    const std::string mutated = stf1_mutator.Mutate(stf1, iteration);
    auto loaded = trace::TraceFromColumnarBytes(mutated);
    if (loaded.ok()) {
      ++stf1_ok;
      for (const trace::JobRecord& job : loaded->jobs()) {
        if (!trace::ValidateJobRecord(job).empty()) {
          Fail(seed, iteration, "STF1 reader accepted an invalid job");
        }
      }
    } else if (loaded.status().message().empty()) {
      Fail(seed, iteration, "STF1 reader returned an unexplained error");
    }
  }
  std::printf(
      "fuzzed %llu mutated STF1 files (seed %llu): %llu loaded cleanly, "
      "%llu rejected with structured errors\n",
      static_cast<unsigned long long>(iterations),
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(stf1_ok),
      static_cast<unsigned long long>(iterations - stf1_ok));
  return 0;
}
