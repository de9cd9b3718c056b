#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "gtest/gtest.h"
#include "trace/columnar.h"
#include "trace/csv_mutator.h"
#include "trace/filters.h"
#include "trace/frameworks.h"
#include "trace/job_record.h"
#include "trace/summary.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "trace_oracle.h"
#include "with_threads.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim::trace {
namespace {

JobRecord MakeJob(uint64_t id, double submit, double input = 1e6,
                  double shuffle = 0.0, double output = 1e5) {
  JobRecord job;
  job.job_id = id;
  job.name = "job_" + std::to_string(id);
  job.submit_time = submit;
  job.duration = 30;
  job.input_bytes = input;
  job.shuffle_bytes = shuffle;
  job.output_bytes = output;
  job.map_tasks = 2;
  job.reduce_tasks = shuffle > 0 ? 1 : 0;
  job.map_task_seconds = 40;
  job.reduce_task_seconds = shuffle > 0 ? 10 : 0;
  job.input_path = "in/a";
  job.output_path = "out/" + std::to_string(id);
  return job;
}

// --- JobRecord ---------------------------------------------------------

TEST(JobRecordTest, TotalsAndMapOnly) {
  JobRecord job = MakeJob(1, 0, 100, 50, 25);
  EXPECT_DOUBLE_EQ(job.TotalBytes(), 175.0);
  EXPECT_DOUBLE_EQ(job.TotalTaskSeconds(), 50.0);
  EXPECT_FALSE(job.IsMapOnly());
  JobRecord map_only = MakeJob(2, 0, 100, 0, 25);
  EXPECT_TRUE(map_only.IsMapOnly());
}

TEST(JobRecordTest, ValidationCatchesNegatives) {
  JobRecord job = MakeJob(1, 0);
  EXPECT_EQ(ValidateJobRecord(job), "");
  job.input_bytes = -1;
  EXPECT_NE(ValidateJobRecord(job), "");
  job = MakeJob(1, 0);
  job.submit_time = -5;
  EXPECT_NE(ValidateJobRecord(job), "");
  job = MakeJob(1, 0);
  job.reduce_tasks = 0;
  job.reduce_task_seconds = 10;
  EXPECT_NE(ValidateJobRecord(job), "");
}

// --- Trace ----------------------------------------------------------------

TEST(TraceTest, MaintainsSubmitOrder) {
  Trace trace;
  trace.AddJob(MakeJob(1, 100));
  trace.AddJob(MakeJob(2, 50));
  trace.AddJob(MakeJob(3, 75));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.JobAt(0).submit_time, 50.0);
  EXPECT_EQ(trace.JobAt(0).job_id, 2u);
  EXPECT_EQ(trace.JobAt(2).job_id, 1u);
}

TEST(TraceTest, SpanCoversDurations) {
  Trace trace;
  JobRecord job = MakeJob(1, 100);
  job.duration = 500;
  trace.AddJob(job);
  trace.AddJob(MakeJob(2, 200));
  EXPECT_DOUBLE_EQ(trace.EndTime(), 600.0);
  EXPECT_DOUBLE_EQ(trace.Span(), 500.0);
}

TEST(TraceTest, EmptyTraceZeroes) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.Span(), 0.0);
  EXPECT_DOUBLE_EQ(trace.EndTime(), 0.0);
}

TEST(TraceTest, ValidateFindsBadJob) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0));
  EXPECT_TRUE(oracle::ValidateTrace(trace).ok());
  JobRecord bad = MakeJob(2, 10);
  bad.duration = -1;
  trace.AddJob(bad);
  EXPECT_FALSE(oracle::ValidateTrace(trace).ok());
}

// --- CSV I/O -----------------------------------------------------------------

TEST(TraceIoTest, RoundTripsInMemory) {
  Trace trace;
  trace.mutable_metadata().name = "test";
  trace.mutable_metadata().machines = 42;
  trace.mutable_metadata().year = 2011;
  trace.AddJob(MakeJob(1, 0));
  trace.AddJob(MakeJob(2, 3600, 5e9, 1e9, 2e8));
  std::string csv = TraceToCsv(trace);
  auto parsed = TraceFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->metadata().name, "test");
  EXPECT_EQ(parsed->metadata().machines, 42);
  EXPECT_EQ(parsed->metadata().year, 2011);
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->JobAt(0), trace.JobAt(0));
  EXPECT_EQ(parsed->JobAt(1), trace.JobAt(1));
}

TEST(TraceIoTest, QuotesCommasInNames) {
  Trace trace;
  JobRecord job = MakeJob(1, 0);
  job.name = "INSERT OVERWRITE TABLE a,b \"quoted\"";
  trace.AddJob(job);
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->JobAt(0).name, job.name);
}

TEST(TraceIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(TraceFromCsv("1,2,3\n").ok());
  EXPECT_FALSE(TraceFromCsv("").ok());
}

TEST(TraceIoTest, RejectsBadFieldCount) {
  std::string csv = std::string(kTraceCsvHeader) + "\n1,name,0\n";
  auto parsed = TraceFromCsv(csv);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(TraceIoTest, RejectsNonNumeric) {
  std::string csv = std::string(kTraceCsvHeader) +
                    "\n1,n,zero,1,1,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(csv).ok());
}

TEST(TraceIoTest, RejectsInvalidRecord) {
  // Negative input bytes.
  std::string csv =
      std::string(kTraceCsvHeader) + "\n1,n,0,1,-5,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(csv).ok());
}

TEST(TraceIoTest, ExtremeDoublesRoundTripExactly) {
  // CSV serialization must round-trip doubles bit-exactly, including
  // subnormals, huge magnitudes, and values needing all 17 digits.
  const double extremes[] = {0.0,
                             1.0 / 3.0,
                             0.1,
                             3.141592653589793,
                             123456789.123456789,
                             9007199254740993.0,  // 2^53 + 1
                             1e-300,
                             5e-324,                  // smallest subnormal
                             2.2250738585072014e-308,  // smallest normal
                             1.7976931348623157e308,   // DBL_MAX
                             1e300};
  Trace trace;
  uint64_t id = 1;
  for (double v : extremes) {
    JobRecord job = MakeJob(id++, v);
    job.duration = v;
    job.input_bytes = v;
    job.map_task_seconds = v;
    trace.AddJob(job);
  }
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed->JobAt(i), trace.JobAt(i)) << "job " << i;
  }
}

TEST(TraceIoTest, RandomDoublesRoundTripExactly) {
  // Property sweep: random finite non-negative bit patterns survive a CSV
  // round trip unchanged.
  Pcg32 rng(2012);
  Trace trace;
  uint64_t id = 1;
  while (trace.size() < 500) {
    uint64_t bits = (static_cast<uint64_t>(rng()) << 32) | rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v) || v < 0.0) continue;
    JobRecord job = MakeJob(id, static_cast<double>(id));
    job.input_bytes = v;
    job.output_bytes = v;
    trace.AddJob(job);
    ++id;
  }
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed->JobAt(i), trace.JobAt(i)) << "job " << i;
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace trace;
  trace.mutable_metadata().name = "file-test";
  trace.AddJob(MakeJob(1, 0));
  std::string path = ::testing::TempDir() + "/swim_trace_test.csv";
  ASSERT_TRUE(WriteTraceCsv(trace, path).ok());
  auto parsed = ReadTraceCsv(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadTraceCsv("/nonexistent/path.csv").ok());
}

// --- Filters ---------------------------------------------------------------

TEST(FiltersTest, TimeRangeSelectsHalfOpenInterval) {
  Trace trace;
  for (int i = 0; i < 10; ++i) trace.AddJob(MakeJob(i + 1, i * 100.0));
  Trace filtered = FilterByTimeRange(trace, 200, 500);
  EXPECT_EQ(filtered.size(), 3u);
  EXPECT_DOUBLE_EQ(filtered.JobAt(0).submit_time, 200.0);
}

// --- Summary -----------------------------------------------------------------

TEST(SummaryTest, ComputesTable1Row) {
  Trace trace;
  trace.mutable_metadata().name = "X";
  trace.mutable_metadata().machines = 10;
  trace.AddJob(MakeJob(1, 0, 100, 10, 1));
  trace.AddJob(MakeJob(2, 50, 200, 0, 2));  // map-only
  TraceSummary summary = Summarize(trace);
  EXPECT_EQ(summary.name, "X");
  EXPECT_EQ(summary.jobs, 2u);
  EXPECT_DOUBLE_EQ(summary.bytes_moved, 313.0);
  EXPECT_EQ(summary.map_only_jobs, 1u);
  EXPECT_DOUBLE_EQ(summary.median_duration, 30.0);
}

TEST(SummaryTest, TableFormatsTotals) {
  TraceSummary a;
  a.name = "A";
  a.jobs = 10;
  a.bytes_moved = 1e12;
  TraceSummary b;
  b.name = "B";
  b.jobs = 5;
  b.bytes_moved = 2e12;
  std::string table = FormatSummaryTable({a, b});
  EXPECT_NE(table.find("Total"), std::string::npos);
  EXPECT_NE(table.find("15"), std::string::npos);
  EXPECT_NE(table.find("3 TB"), std::string::npos);
}

// --- Frameworks -----------------------------------------------------------

TEST(FrameworksTest, ClassifiesKnownWords) {
  EXPECT_EQ(ClassifyFramework("insert"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("select"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("from"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("piglatin"), Framework::kPig);
  EXPECT_EQ(ClassifyFramework("oozie"), Framework::kOozie);
  EXPECT_EQ(ClassifyFramework("ad"), Framework::kNative);
  EXPECT_EQ(ClassifyFramework(""), Framework::kNative);
}

TEST(FrameworksTest, NamesAreStable) {
  EXPECT_EQ(FrameworkName(Framework::kHive), "Hive");
  EXPECT_EQ(FrameworkName(Framework::kPig), "Pig");
  EXPECT_EQ(FrameworkName(Framework::kOozie), "Oozie");
  EXPECT_EQ(FrameworkName(Framework::kNative), "Native");
}

// --- CSV dialect corners ------------------------------------------------

TEST(TraceIoTest, AcceptsCrlfLineEndings) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0));
  trace.AddJob(MakeJob(2, 60));
  std::string csv = TraceToCsv(trace);
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto parsed = TraceFromCsv(crlf);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->JobAt(0), trace.JobAt(0));
  EXPECT_EQ(parsed->JobAt(1), trace.JobAt(1));
}

TEST(TraceIoTest, QuotedFieldsWithNewlinesAndEscapedQuotes) {
  Trace trace;
  JobRecord job = MakeJob(1, 0);
  job.name = "line one\nline two";
  job.input_path = "hdfs://a,\"b\"\npart=3";
  trace.AddJob(job);
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->JobAt(0).name, job.name);
  EXPECT_EQ(parsed->JobAt(0).input_path, job.input_path);
}

TEST(TraceIoTest, MetadataCommentsAfterHeader) {
  // #key=value lines are honored anywhere, not just before the header.
  std::string csv = std::string(kTraceCsvHeader) +
                    "\n#name=LATE\n1,n,0,1,1,0,1,1,0,1,0,a,b\n#machines=64\n";
  auto parsed = TraceFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->metadata().name, "LATE");
  EXPECT_EQ(parsed->metadata().machines, 64);
  ASSERT_EQ(parsed->size(), 1u);
}

TEST(TraceIoTest, RejectsMachinesOrYearOutsideInt32) {
  // #machines / #year must be integers in [0, INT32_MAX], before or after
  // the header and in every mode: 4294967297 must not wrap to 1, and -5 or
  // junk must not be kept or ignored.
  const std::string row = "1,n,0,1,1,0,1,1,0,1,0,a,b\n";
  struct Case {
    std::string csv;
    std::string error;
  };
  const Case cases[] = {
      {"#machines=4294967297\n" + std::string(kTraceCsvHeader) + "\n" + row,
       "line 1: #machines=4294967297 is not an integer in [0, 2147483647]"},
      {"#name=x\n#machines=-5\n" + std::string(kTraceCsvHeader) + "\n" + row,
       "line 2: #machines=-5 is not an integer"},
      {"#year=20x9\n" + std::string(kTraceCsvHeader) + "\n" + row,
       "line 1: #year=20x9 is not an integer"},
      {std::string(kTraceCsvHeader) + "\n" + row + "#year=-1\n" + row,
       "line 3: #year=-1 is not an integer"},
      {std::string(kTraceCsvHeader) + "\n" + row + "#machines=2147483648\n",
       "line 3: #machines=2147483648 is not an integer"},
  };
  for (const Case& c : cases) {
    for (ParseMode mode :
         {ParseMode::kStrict, ParseMode::kSkip, ParseMode::kRepair}) {
      ParseOptions options;
      options.mode = mode;
      auto parsed = TraceFromCsv(c.csv, options);
      ASSERT_FALSE(parsed.ok()) << c.csv;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(c.error), std::string::npos)
          << parsed.status().ToString();
    }
  }
  // The bounds themselves are accepted.
  auto bounds = TraceFromCsv("#machines=2147483647\n#year=0\n" +
                             std::string(kTraceCsvHeader) + "\n" + row);
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  EXPECT_EQ(bounds->metadata().machines, 2147483647);
  EXPECT_EQ(bounds->metadata().year, 0);
}

TEST(TraceIoTest, RejectsMidFieldQuote) {
  // A quote opening mid-field (ab"cd) or junk after a closing quote
  // ("ab"cd) silently mis-parsed before; both must be malformed now.
  std::string mid = std::string(kTraceCsvHeader) +
                    "\n1,na\"me,0,1,1,0,1,1,0,1,0,a,b\n";
  auto parsed = TraceFromCsv(mid);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
  std::string junk = std::string(kTraceCsvHeader) +
                     "\n1,\"na\"me,0,1,1,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(junk).ok());
}

// --- CSV golden digests ------------------------------------------------

/// A 13,000-record CSV document built to stress every branch of the
/// parser: quoted multi-line names (some on the records either side of the
/// 4096-record shard boundaries), CRLF endings (also inside a quoted
/// field), "#key=value" lines amid the data (one with a lone quote),
/// numbers only strtod reads ('+', hex, padding, subnormals, 17 digits),
/// and, when `corrupt`, every 37th row damaged by CsvMutator.
std::string GoldenCsvDocument(bool corrupt) {
  Pcg32 rng(2010, 17);
  const CsvMutator mutator(4242);
  std::string csv = "#name=golden\r\n#machines=600\n#year=2010\r\n" +
                    std::string(kTraceCsvHeader) + "\r\n";
  char number[64];
  auto shortest = [&](double value) {
    return std::string(number, std::to_chars(number, number + sizeof(number),
                                             value).ptr);
  };
  size_t record = 0;  // records after the header, as the shards count them
  for (int i = 0; i < 13000; ++i) {
    if (i % 1000 == 500) {
      csv += "#name=golden-" + std::to_string(i) + "\n";
      csv += "#machines=" + std::to_string(600 + i) + "\r\n";
      csv += "#year=2011\n#no assignment here\n#a=b=c\n#unknown=5\n\n";
      csv += "#note=\"an open quote in a comment\n";
      record += 8;
    }
    const size_t in_shard = record++ % 4096;
    std::string name = "job" + std::to_string(i);
    if (in_shard <= 1 || in_shard == 4095 || i % 97 == 0) {
      name = "\"multi\nline \"\"quoted\"\", name " + std::to_string(i);
      if (i % 2 == 0) name += "\r\nthird line";
      name += "\"";
    }
    const double submit = i * 1.5 + rng.NextDouble();
    const double duration = 1.0 + rng.NextDouble() * 3600.0;
    const double input = std::floor(rng.NextDouble() * 1e12);
    const double shuffle = i % 3 == 0 ? 0.0 : rng.NextDouble() * 1e9;
    const double output = rng.NextDouble() * 1e10;
    const int64_t maps = 1 + static_cast<int64_t>(rng.NextBounded(5000));
    const int64_t reduces = i % 3 == 0 ? 0 : 1 + rng.NextBounded(200);
    std::string row = std::to_string(i) + "," + name + "," + shortest(submit) +
                      ",";
    switch (i % 11) {
      case 0:
        std::snprintf(number, sizeof(number), "%.17g", duration);
        row += number;
        break;
      case 1:
        row += "0x1p3";  // hex: 8 seconds
        break;
      case 2:
        row += " +" + shortest(duration) + "\t";
        break;
      default:
        row += shortest(duration);
    }
    row += "," + shortest(input) + "," + shortest(shuffle) + ",";
    row += i % 13 == 0 ? "5e-324" : shortest(output);
    row += "," + std::string(i % 7 == 0 ? "+" : "") + std::to_string(maps) +
           "," + std::to_string(reduces) + "," +
           shortest(maps * rng.NextDouble() * 60.0) + "," +
           shortest(reduces * rng.NextDouble() * 60.0) + ",in/" +
           std::to_string(rng.NextBounded(300)) + ",out/" + std::to_string(i);
    row += i % 4 == 0 ? "\r\n" : "\n";
    if (corrupt && i % 37 == 0) row = mutator.Mutate(row, i);
    csv += row;
  }
  return csv;
}

TEST(TraceIoTest, GoldenDigestsAtAnyThreadCount) {
  // XXH64 of the re-serialized trace and of the report text (or of the
  // error, when the mode fails the document). Pinned on the strtod parser
  // that predates the from_chars fast path and the memchr record split.
  struct Golden {
    bool corrupt;
    ParseMode mode;
    const char* trace_digest;
    const char* report_digest;
  };
  const Golden goldens[] = {
      {false, ParseMode::kStrict, "b568eb6db7d2a40c", "354be83b35555c5f"},
      {false, ParseMode::kSkip, "b568eb6db7d2a40c", "a6e321aa03e495f0"},
      {false, ParseMode::kRepair, "b568eb6db7d2a40c", "9c5c881b0be64c16"},
      {true, ParseMode::kStrict, "fda704f8a0a6fef3", "ef46db3751d8e999"},
      {true, ParseMode::kSkip, "9ad44389778b660e", "3fd47b392db71822"},
      {true, ParseMode::kRepair, "0b4f60ebb82ec080", "5c533dd31e0b3466"},
  };
  auto hex = [](const std::string& text) {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(
                      Checksum64(text.data(), text.size())));
    return std::string(out);
  };
  const std::string documents[] = {GoldenCsvDocument(false),
                                   GoldenCsvDocument(true)};
  for (const Golden& golden : goldens) {
    for (int threads : {1, 4}) {
      ParseOptions options;
      options.mode = golden.mode;
      options.threads = threads;
      ParseReport report;
      auto parsed =
          TraceFromCsv(documents[golden.corrupt ? 1 : 0], options, &report);
      const std::string trace_text =
          parsed.ok() ? TraceToCsv(*parsed) : parsed.status().ToString();
      const std::string report_text = parsed.ok() ? report.ToString() : "";
      SCOPED_TRACE(std::string(ParseModeName(golden.mode)) +
                   (golden.corrupt ? " corrupt" : " clean") + " threads=" +
                   std::to_string(threads));
      if (golden.mode != ParseMode::kStrict || !golden.corrupt) {
        EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      }
      EXPECT_EQ(hex(trace_text), golden.trace_digest);
      EXPECT_EQ(hex(report_text), golden.report_digest);
    }
  }
}

// --- Lenient parse modes ------------------------------------------------

TEST(TraceIoTest, ParseModeNamesRoundTrip) {
  for (ParseMode mode :
       {ParseMode::kStrict, ParseMode::kSkip, ParseMode::kRepair}) {
    auto back = ParseModeFromName(ParseModeName(mode));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(ParseModeFromName("lenient").ok());
}

// One good row, then: bad field count (3), non-numeric input_bytes (4),
// negative duration (5), unbalanced quote (6), good (7).
std::string MessyCsv() {
  return std::string(kTraceCsvHeader) +
         "\n1,n,0,1,1,0,1,1,0,1,0,a,b\n"
         "2,n,0\n"
         "3,n,0,1,zero,0,1,1,0,1,0,a,b\n"
         "4,n,0,-9,1,0,1,1,0,1,0,a,b\n"
         "5,\"n,0,1,1,0,1,1,0,1,0,a,b\n"
         "6,n,6,1,1,0,1,1,0,1,0,a,b\n";
}

TEST(TraceIoTest, SkipModeCountsEachCategory) {
  ParseReport report;
  auto parsed =
      TraceFromCsv(MessyCsv(), ParseOptions{ParseMode::kSkip, 64, 0}, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);  // jobs 1 and 6
  EXPECT_EQ(report.total_rows, 6u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.skipped, 4u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.error_counts[size_t{0}], 1u);  // unbalanced quote
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kFieldCount)],
      1u);
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kBadNumber)],
      1u);
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kInvalidRecord)],
      1u);
  ASSERT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[0].line, 3);
  EXPECT_EQ(report.diagnostics[1].line, 4);
  EXPECT_EQ(report.diagnostics[1].field, "input_bytes");
  EXPECT_EQ(report.diagnostics[2].line, 5);
  EXPECT_EQ(report.diagnostics[3].line, 6);
}

TEST(TraceIoTest, RepairModePatchesValueProblems) {
  ParseReport report;
  auto parsed = TraceFromCsv(MessyCsv(),
                             ParseOptions{ParseMode::kRepair, 64, 0}, &report);
  ASSERT_TRUE(parsed.ok());
  // Value-level rows (3: bad number, 4: negative duration) are patched and
  // kept; structural rows (2, 5) stay skipped.
  EXPECT_EQ(parsed->size(), 4u);
  EXPECT_EQ(report.accepted, 4u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.skipped, 2u);
  for (const JobRecord& job : parsed->jobs()) {
    EXPECT_EQ(ValidateJobRecord(job), "");
  }
  // The patched fields land on the nearest valid value: zero.
  const JobRecord* three = nullptr;
  const JobRecord* four = nullptr;
  const std::vector<JobRecord> jobs = parsed->jobs();
  for (const JobRecord& job : jobs) {
    if (job.job_id == 3) three = &job;
    if (job.job_id == 4) four = &job;
  }
  ASSERT_NE(three, nullptr);
  EXPECT_DOUBLE_EQ(three->input_bytes, 0.0);
  ASSERT_NE(four, nullptr);
  EXPECT_DOUBLE_EQ(four->duration, 0.0);
}

TEST(TraceIoTest, StrictModeReportsEarliestBadLine) {
  // Strict failure must name the first bad line even when later shards
  // (parallel parse) hit errors too.
  for (int threads : {1, 8}) {
    auto parsed = TraceFromCsv(MessyCsv(), threads);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceIoTest, ReportIdenticalAtAnyThreadCount) {
  // Build a trace large enough to span several 4096-line parse shards,
  // with errors sprinkled in.
  std::string csv(kTraceCsvHeader);
  csv += "\n";
  for (int i = 1; i <= 10000; ++i) {
    if (i % 97 == 0) {
      csv += "bad line\n";
    } else if (i % 131 == 0) {
      csv += std::to_string(i) + ",n,0,1,nope,0,1,1,0,1,0,a,b\n";
    } else {
      csv += std::to_string(i) + ",n,0,1,1,0,1,1,0,1,0,a,b\n";
    }
  }
  ParseReport serial, wide;
  auto a = TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 32, 1}, &serial);
  auto b = TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 32, 8}, &wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(TraceToCsv(*a), TraceToCsv(*b));
  EXPECT_EQ(serial.ToString(), wide.ToString());
  EXPECT_GT(serial.dropped_diagnostics, 0u);  // cap respected, counts exact
  EXPECT_EQ(serial.diagnostics.size(), 32u);
}

TEST(TraceIoTest, NonFiniteNumbersAreBadNumbers) {
  // strtod happily parses "inf"/"nan"/"1e999"; the trace schema has no
  // meaning for them. Strict rejects; repair patches to 0 and keeps.
  for (const char* hostile : {"inf", "-inf", "nan", "1e999"}) {
    std::string csv = std::string(kTraceCsvHeader) + "\n1,n,0,1," + hostile +
                      ",0,1,1,0,1,0,a,b\n";
    EXPECT_FALSE(TraceFromCsv(csv).ok()) << hostile;
    ParseReport report;
    auto repaired =
        TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 64, 0}, &report);
    ASSERT_TRUE(repaired.ok()) << hostile;
    ASSERT_EQ(repaired->size(), 1u) << hostile;
    EXPECT_DOUBLE_EQ(repaired->JobAt(0).input_bytes, 0.0) << hostile;
    EXPECT_EQ(
        report.error_counts[static_cast<size_t>(ParseErrorKind::kBadNumber)],
        1u)
        << hostile;
  }
}

TEST(TraceTest, CopyAndMovePreserveJobsAndMetadata) {
  Trace trace;
  trace.mutable_metadata().name = "copy-src";
  trace.AddJob(MakeJob(2, 10));
  trace.AddJob(MakeJob(1, 0));

  Trace copy = trace;
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.metadata().name, "copy-src");
  EXPECT_EQ(copy.JobAt(0).job_id, 1u);  // sortedness carried
  EXPECT_EQ(oracle::IdsOf(copy), oracle::IdsOf(trace));

  Trace moved = std::move(copy);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.metadata().name, "copy-src");
  EXPECT_EQ(oracle::IdsOf(moved), oracle::IdsOf(trace));
}

// --- Sorting and writing ------------------------------------------------

/// Seeded shuffles of 120k jobs whose submit times take 48 distinct
/// values, -0.0 and +0.0 among them, must come out of SetJobs in exactly
/// std::stable_sort's order: ties keep their input order, and -0.0 ties
/// with +0.0.
TEST(TraceTest, SetJobsMatchesStableSortOracle) {
  constexpr size_t kJobs = 120000;
  std::vector<double> times = {-0.0, 0.0};
  for (int v = 1; v < 47; ++v) times.push_back(v * 1800.0);
  times.push_back(5e-324);
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Pcg32 rng(seed);
    std::vector<JobRecord> jobs;
    jobs.reserve(kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
      jobs.push_back(MakeJob(i + 1, times[rng.NextBounded(times.size())]));
    }
    for (size_t i = kJobs - 1; i > 0; --i) {
      std::swap(jobs[i], jobs[rng.NextBounded(i + 1)]);
    }
    std::vector<std::pair<double, uint64_t>> oracle;
    for (const JobRecord& job : jobs) {
      oracle.emplace_back(job.submit_time, job.job_id);
    }
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    Trace trace;
    trace.SetJobs(std::move(jobs));
    const std::vector<JobRecord>& sorted = trace.jobs();
    ASSERT_EQ(sorted.size(), kJobs);
    size_t mismatches = 0;
    for (size_t i = 0; i < kJobs; ++i) {
      const JobRecord& job = sorted[i];
      if (job.job_id != oracle[i].second ||
          std::signbit(job.submit_time) != std::signbit(oracle[i].first) ||
          job.submit_time != oracle[i].first ||
          job.name != "job_" + std::to_string(job.job_id) ||
          job.output_path != "out/" + std::to_string(job.job_id)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);

    // Already sorted: same order.
    Trace resorted;
    resorted.SetJobs(sorted);
    EXPECT_TRUE(resorted.jobs() == sorted);
  }
}

/// WriteTraceCsv and TraceToCsv share one encoder: a file holds exactly
/// the in-memory bytes, in row order, here with quoted multi-line names on
/// every row, so on both sides of every chunk boundary, at one and at four
/// lanes.
TEST(TraceIoTest, WriterMatchesEncoderAcrossChunkBoundaries) {
  Trace trace;
  trace.mutable_metadata().name = "chunks";
  trace.mutable_metadata().machines = 12;
  std::vector<JobRecord> jobs;
  for (uint64_t i = 0; i < 9000; ++i) {
    // Tied submit times: the parse keeps file order, so it also shows
    // whether the rows were written in order.
    JobRecord job = MakeJob(i + 1, static_cast<double>(i / 3000));
    job.name = "etl, \"step\"\nline two of " + std::to_string(i);
    if (i % 3 == 0) job.input_path = "in/\"quoted\",\n" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  trace.SetJobs(std::move(jobs));
  const std::string path = ::testing::TempDir() + "/swim_chunk_writer.csv";
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("SWIM_THREADS=") + threads);
    WithThreads(threads, [&] {
      const std::string csv = TraceToCsv(trace);
      ASSERT_TRUE(WriteTraceCsv(trace, path).ok());
      std::FILE* in = std::fopen(path.c_str(), "rb");
      ASSERT_NE(in, nullptr);
      std::string written;
      char buffer[1 << 16];
      size_t got = 0;
      while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
        written.append(buffer, got);
      }
      std::fclose(in);
      EXPECT_TRUE(written == csv);
      auto parsed = TraceFromCsv(csv);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_TRUE(parsed->jobs() == trace.jobs());
    });
  }
  std::remove(path.c_str());
}


// --- One representation: every producer yields the canonical columns -----

/// `csv` with a blank line, a comment and a malformed row after every
/// 997th data row: skip and repair modes drop the malformed rows, so the
/// trace is unchanged, while the rows land in shards with gaps to close.
std::string NoisyCsv(const std::string& csv) {
  std::string out;
  size_t line = 0;
  size_t begin = 0;
  while (begin < csv.size()) {
    const size_t end = csv.find('\n', begin) + 1;
    out.append(csv, begin, end - begin);
    if (++line > 4 && line % 997 == 0) out += "\n# note\n1,2,3\n";
    begin = end;
  }
  return out;
}

/// Every producer of a Trace yields the columns, ids and dictionaries of
/// the reference: one serial first-appearance interning pass over the
/// submit-sorted rows. The CSV parse interns per shard on worker threads
/// and merges the shard dictionaries, so this also runs under TSan and
/// ASan+UBSan in CI.
TEST(TraceProducerTest, EveryProducerYieldsTheReferenceColumns) {
  // CC-b has names, input and output paths; FB-2010 input paths only;
  // FB-2009 no paths. 9000 jobs span three CSV parse shards.
  for (const char* workload : {"CC-b", "FB-2010", "FB-2009"}) {
    SCOPED_TRACE(workload);
    auto spec = workloads::PaperWorkloadByName(workload);
    ASSERT_TRUE(spec.ok());
    workloads::GeneratorOptions options;
    options.job_count_override = 9000;
    auto generated = workloads::GenerateTrace(*spec, options);
    ASSERT_TRUE(generated.ok());
    auto expect_reference = [](const Trace& t, const std::string& producer) {
      SCOPED_TRACE(producer);
      const std::vector<JobRecord> rows = t.jobs();
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                                 [](const JobRecord& a, const JobRecord& b) {
                                   return a.submit_time < b.submit_time;
                                 }));
      EXPECT_EQ(oracle::IdsOf(t), oracle::FirstAppearanceIds(rows));
    };
    expect_reference(*generated, "GenerateTrace");

    // Some names and paths that need CSV quoting, set through SetJobs.
    std::vector<JobRecord> rows = generated->jobs();
    for (size_t i = 0; i < rows.size(); i += 500) {
      if (!rows[i].name.empty()) rows[i].name = "a,\"b\" " + rows[i % 7].name;
      if (!rows[i].input_path.empty()) rows[i].input_path += ",x";
    }
    Trace source(generated->metadata());
    source.SetJobs(rows);
    expect_reference(source, "SetJobs");
    const oracle::TraceIds ids = oracle::IdsOf(source);
    auto expect_source = [&](const Trace& t, const std::string& producer) {
      SCOPED_TRACE(producer);
      EXPECT_EQ(t.jobs(), rows);
      EXPECT_EQ(oracle::IdsOf(t), ids);
    };

    const std::string csv = TraceToCsv(source);
    const std::string noisy = NoisyCsv(csv);
    for (int threads : {1, 4}) {
      for (ParseMode mode :
           {ParseMode::kStrict, ParseMode::kSkip, ParseMode::kRepair}) {
        const std::string label = std::string("CSV ") + ParseModeName(mode) +
                                  " at " + std::to_string(threads);
        auto parsed = TraceFromCsv(csv, ParseOptions{mode, 64, threads});
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        expect_source(*parsed, label);
        if (mode == ParseMode::kStrict) continue;
        auto lenient = TraceFromCsv(noisy, ParseOptions{mode, 64, threads});
        ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
        expect_source(*lenient, label + " with noise");
      }
    }
    // Rows out of submit order: the parse sorts them and renumbers ids.
    std::string reversed;
    {
      std::vector<std::string> lines;
      size_t begin = 0;
      while (begin < csv.size()) {
        const size_t end = csv.find('\n', begin) + 1;
        lines.emplace_back(csv, begin, end - begin);
        begin = end;
      }
      size_t header = 0;
      while (lines[header].rfind("job_id,", 0) != 0) ++header;
      std::reverse(lines.begin() + static_cast<long>(header) + 1,
                   lines.end());
      for (const std::string& line : lines) reversed += line;
    }
    auto unsorted = TraceFromCsv(reversed, /*threads=*/4);
    ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
    expect_reference(*unsorted, "CSV in reverse submit order");
    EXPECT_EQ(TraceToCsv(*unsorted), csv);

    auto loaded = TraceFromColumnarBytes(TraceToColumnarBytes(source));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    expect_source(*loaded, "STF1 load");

    Trace added(source.metadata());
    for (const JobRecord& row : rows) added.AddJob(row);
    expect_source(added, "AddJob in submit order");
    Trace backwards(source.metadata());
    for (size_t i = 300; i-- > 0;) backwards.AddJob(rows[i]);
    expect_reference(backwards, "AddJob out of order");

    auto model = core::BuildModel(source);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    for (core::SynthesisMethod method : {core::SynthesisMethod::kEmpirical,
                                         core::SynthesisMethod::kParametricLognormal}) {
      core::SynthesisOptions synthesis;
      synthesis.job_count = 9000;
      synthesis.method = method;
      auto synthesized = core::SynthesizeTrace(*model, synthesis);
      ASSERT_TRUE(synthesized.ok()) << synthesized.status().ToString();
      expect_reference(*synthesized,
                       method == core::SynthesisMethod::kEmpirical
                           ? "SynthesizeTrace empirical"
                           : "SynthesizeTrace parametric");
    }
  }
}

}  // namespace
}  // namespace swim::trace
