// STF1 columnar format: round-trip identity (bytes, columns, indexes),
// mmap/read() path equivalence, analyzer byte-identity across formats and
// thread counts, the corrupted-input validation ladder (every structural
// lie must yield a structured error, never a crash), and a short
// deterministic fuzz pass (bench_fuzz_ingest runs the long version under
// ASan/UBSan in CI).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/interner.h"
#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "trace/columnar.h"
#include "trace/stf1_mutator.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "trace_oracle.h"

namespace swim::trace {
namespace {

/// A trace exercising the format's full surface: quoted names, empty
/// optional strings (kNoStringId columns), shared paths (dictionary
/// dedup), map-only jobs, fractional doubles.
Trace BaseTrace(size_t jobs = 64) {
  Trace t;
  t.mutable_metadata().name = "STF1-test, \"quoted\"";
  t.mutable_metadata().machines = 600;
  t.mutable_metadata().year = 2010;
  for (uint64_t id = 1; id <= jobs; ++id) {
    JobRecord job;
    job.job_id = id;
    switch (id % 4) {
      case 0: job.name = "pipeline,stage " + std::to_string(id); break;
      case 1: job.name = "ad hoc \"select\""; break;
      case 2: job.name = "line1\nline2"; break;
      default: job.name = ""; break;
    }
    job.submit_time = static_cast<double>(id) * 9.731;
    job.duration = 30.0 + static_cast<double>(id) / 7.0;
    job.input_bytes = 1.5e6 * static_cast<double>(id % 17 + 1);
    job.shuffle_bytes = id % 3 == 0 ? 0.0 : 5.25e5;
    job.output_bytes = 1e5 + 0.125;
    job.map_tasks = 1 + static_cast<int64_t>(id % 9);
    job.reduce_tasks = id % 3 == 0 ? 0 : 1;
    job.map_task_seconds = 40.5;
    job.reduce_task_seconds = id % 3 == 0 ? 0.0 : 10.0;
    job.input_path = "hdfs://warehouse/t" + std::to_string(id % 7);
    job.output_path = id % 5 == 0 ? "" : "out/" + std::to_string(id % 11);
    t.AddJob(std::move(job));
  }
  return t;
}

/// Reparses the header + section table, applies `damage` to the byte
/// image, then recomputes the damaged section's checksum, the table
/// checksum, and the header checksum — so the corruption under test is the
/// ONLY invalid thing in the file and the validation ladder can't bail out
/// earlier for an incidental reason.
template <typename Damage>
std::string PatchSection(std::string bytes, Stf1SectionKind kind,
                         Damage&& damage) {
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (size_t i = 0; i < kStf1SectionCount; ++i) {
    Stf1Section section;
    const size_t entry_at = header.table_offset + i * sizeof(Stf1Section);
    std::memcpy(&section, bytes.data() + entry_at, sizeof(section));
    if (section.kind != static_cast<uint32_t>(kind)) continue;
    damage(&bytes, section);
    section.checksum = Checksum64(bytes.data() + section.offset,
                                  section.bytes);
    std::memcpy(bytes.data() + entry_at, &section, sizeof(section));
    break;
  }
  header.table_checksum =
      Checksum64(bytes.data() + header.table_offset, header.table_bytes);
  header.header_checksum = Checksum64(&header, offsetof(Stf1Header,
                                                        header_checksum));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

/// Rewrites a header field and re-signs the header checksum.
template <typename Mutate>
std::string PatchHeader(std::string bytes, Mutate&& mutate) {
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  mutate(&header);
  header.header_checksum = Checksum64(&header, offsetof(Stf1Header,
                                                        header_checksum));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
}

/// Re-lays an STF1 image with some section payloads replaced (their sizes
/// may change) and re-signs every checksum: an encoder for valid files the
/// writer never produces.
std::string ReplaceSections(
    const std::string& bytes,
    const std::map<Stf1SectionKind, std::string>& replacements) {
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<std::string> payloads(kStf1SectionCount);
  std::vector<Stf1Section> entries(kStf1SectionCount);
  for (size_t i = 0; i < kStf1SectionCount; ++i) {
    Stf1Section section;
    std::memcpy(&section,
                bytes.data() + header.table_offset + i * sizeof(section),
                sizeof(section));
    const auto kind = static_cast<Stf1SectionKind>(section.kind);
    auto it = replacements.find(kind);
    payloads[section.kind] =
        it != replacements.end()
            ? it->second
            : bytes.substr(section.offset, section.bytes);
    entries[section.kind] = section;
  }
  auto align = [](size_t at) {
    return (at + kStf1Alignment - 1) & ~(kStf1Alignment - 1);
  };
  header.table_offset = sizeof(Stf1Header);
  header.table_bytes = kStf1SectionCount * sizeof(Stf1Section);
  size_t at = align(header.table_offset + header.table_bytes);
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    entries[kind].offset = at;
    entries[kind].bytes = payloads[kind].size();
    entries[kind].checksum =
        Checksum64(payloads[kind].data(), payloads[kind].size());
    at = align(at + payloads[kind].size());
  }
  std::string out(at, '\0');
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    std::memcpy(out.data() + header.table_offset + kind * sizeof(Stf1Section),
                &entries[kind], sizeof(Stf1Section));
    std::memcpy(out.data() + entries[kind].offset, payloads[kind].data(),
                payloads[kind].size());
  }
  header.table_checksum =
      Checksum64(out.data() + header.table_offset, header.table_bytes);
  header.header_checksum =
      Checksum64(&header, offsetof(Stf1Header, header_checksum));
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

template <typename T>
std::string AsBytes(const std::vector<T>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(T));
}

/// The same jobs as `canonical` in a valid but non-canonical encoding: the
/// path dictionary reversed (ids out of first-appearance order) plus a
/// duplicate of one entry that every other reader of that path points at.
std::string NonCanonicalEncoding(const std::string& canonical) {
  auto view = ColumnarTraceView::FromBytes(canonical);
  EXPECT_TRUE(view.ok());
  const JobColumns c = view->columns();
  const uint32_t paths = static_cast<uint32_t>(c.paths.size());
  std::vector<std::string> dictionary;
  for (uint32_t id = paths; id-- > 0;) {
    dictionary.emplace_back(c.paths[id]);
  }
  dictionary.emplace_back(c.paths[0]);  // id `paths`: a duplicate of old 0
  std::vector<uint32_t> input_ids(c.size);
  std::vector<uint32_t> output_ids(c.size);
  bool alternate = false;
  auto remap = [&](uint32_t id) {
    if (id == kNoStringId) return id;
    if (id == 0) {
      alternate = !alternate;
      if (alternate) return paths;  // every other reader takes the duplicate
    }
    return paths - 1 - id;
  };
  for (size_t i = 0; i < c.size; ++i) {
    input_ids[i] = remap(c.input_path_id[i]);
    output_ids[i] = remap(c.output_path_id[i]);
  }
  std::vector<uint64_t> offsets = {0};
  std::string blob;
  for (const std::string& entry : dictionary) {
    blob += entry;
    offsets.push_back(blob.size());
  }
  return ReplaceSections(
      canonical, {{Stf1SectionKind::kInputPathIds, AsBytes(input_ids)},
                  {Stf1SectionKind::kOutputPathIds, AsBytes(output_ids)},
                  {Stf1SectionKind::kPathDictOffsets, AsBytes(offsets)},
                  {Stf1SectionKind::kPathDictBlob, blob}});
}

/// Runs `body` with SWIM_THREADS set to `threads`, then restores it.
template <typename Body>
void WithThreads(const char* threads, Body&& body) {
  const char* old = std::getenv("SWIM_THREADS");
  const std::string saved = old ? old : "";
  ::setenv("SWIM_THREADS", threads, 1);
  body();
  if (old) {
    ::setenv("SWIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SWIM_THREADS");
  }
}

std::string ReportOf(const Trace& trace) {
  auto report = core::AnalyzeWorkload(trace);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? core::FormatReport(*report) : std::string();
}

TEST(ColumnarTest, CsvToStf1ToCsvIsByteIdentical) {
  Trace original = BaseTrace();
  const std::string csv = TraceToCsv(original);

  auto from_csv = TraceFromCsv(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  auto back = TraceFromColumnarBytes(TraceToColumnarBytes(*from_csv));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(TraceToCsv(*back), csv);
}

TEST(ColumnarTest, RoundTripPreservesIndexesAndMetadata) {
  Trace original = BaseTrace();
  auto loaded = TraceFromColumnarBytes(TraceToColumnarBytes(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->metadata().name, original.metadata().name);
  EXPECT_EQ(loaded->metadata().machines, original.metadata().machines);
  EXPECT_EQ(loaded->metadata().year, original.metadata().year);
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->JobAt(i), original.JobAt(i)) << "job " << i;
  }
  // The persisted id columns are the trace's (first-appearance order), so
  // downstream consumers can't tell a loaded trace from a parsed one.
  EXPECT_EQ(oracle::IdsOf(*loaded), oracle::IdsOf(original));
}

TEST(ColumnarTest, EmptyTraceRoundTrips) {
  Trace empty;
  empty.mutable_metadata().name = "EMPTY";
  auto loaded = TraceFromColumnarBytes(TraceToColumnarBytes(empty));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->metadata().name, "EMPTY");
}

TEST(ColumnarTest, MmapAndReadPathsProduceIdenticalTraces) {
  Trace original = BaseTrace();
  const std::string path = TempPath("columnar_paths.stf1");
  ASSERT_TRUE(WriteTraceColumnar(original, path).ok());

  ColumnarOptions with_mmap;
  with_mmap.allow_mmap = true;
  ColumnarOptions no_mmap;
  no_mmap.allow_mmap = false;
  auto mapped = LoadTraceColumnar(path, with_mmap);
  auto read = LoadTraceColumnar(path, no_mmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(TraceToCsv(*mapped), TraceToCsv(*read));
  EXPECT_EQ(oracle::IdsOf(*mapped), oracle::IdsOf(*read));
  std::remove(path.c_str());
}

TEST(ColumnarTest, ViewExposesColumnsZeroCopy) {
  Trace original = BaseTrace();
  auto view = ColumnarTraceView::FromBytes(TraceToColumnarBytes(original));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->job_count(), original.size());
  const auto& jobs = original.jobs();
  const JobColumns columns = view->columns();
  ASSERT_EQ(columns.size, jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(columns.submit_time[i], jobs[i].submit_time);
    EXPECT_EQ(columns.map_tasks[i], jobs[i].map_tasks);
    if (jobs[i].name.empty()) {
      EXPECT_EQ(columns.name_id[i], kNoStringId);
    } else {
      EXPECT_EQ(columns.names[columns.name_id[i]], jobs[i].name);
    }
  }
  EXPECT_TRUE(view->VerifyChecksums().ok());
}

TEST(ColumnarTest, AnalyzerIsByteIdenticalAcrossFormatsAndThreads) {
  Trace original = BaseTrace(256);
  const std::string csv_path = TempPath("columnar_analyze.csv");
  const std::string stf1_path = TempPath("columnar_analyze.stf1");
  ASSERT_TRUE(WriteTraceCsv(original, csv_path).ok());
  ASSERT_TRUE(WriteTraceColumnar(original, stf1_path).ok());

  const char* old = std::getenv("SWIM_THREADS");
  const std::string saved = old ? old : "";
  std::string reports[2][2];
  const char* threads[2] = {"1", "8"};
  for (int env = 0; env < 2; ++env) {
    ::setenv("SWIM_THREADS", threads[env], 1);
    const std::string* paths[2] = {&csv_path, &stf1_path};
    for (int format = 0; format < 2; ++format) {
      auto loaded = ReadTraceAuto(*paths[format]);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      auto report = core::AnalyzeWorkload(*loaded);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      reports[env][format] = core::FormatReport(*report);
    }
  }
  if (old) {
    ::setenv("SWIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SWIM_THREADS");
  }
  EXPECT_EQ(reports[0][0], reports[0][1]) << "CSV vs STF1 at 1 thread";
  EXPECT_EQ(reports[1][0], reports[1][1]) << "CSV vs STF1 at 8 threads";
  EXPECT_EQ(reports[0][0], reports[1][0]) << "1 vs 8 threads";
  std::remove(csv_path.c_str());
  std::remove(stf1_path.c_str());
}

TEST(ColumnarTest, SniffsFormatsAndDispatchesByExtension) {
  Trace original = BaseTrace(8);
  const std::string csv_path = TempPath("columnar_sniff.csv");
  const std::string stf1_path = TempPath("columnar_sniff.stf1");
  ASSERT_TRUE(WriteTraceAuto(original, csv_path).ok());
  ASSERT_TRUE(WriteTraceAuto(original, stf1_path).ok());

  auto csv_format = SniffTraceFormat(csv_path);
  auto stf1_format = SniffTraceFormat(stf1_path);
  ASSERT_TRUE(csv_format.ok());
  ASSERT_TRUE(stf1_format.ok());
  EXPECT_EQ(*csv_format, TraceFormat::kCsv);
  EXPECT_EQ(*stf1_format, TraceFormat::kStf1);
  EXPECT_FALSE(SniffTraceFormat(TempPath("no_such_file.stf1")).ok());
  EXPECT_TRUE(HasColumnarExtension("x.stf"));
  EXPECT_TRUE(HasColumnarExtension("x.STF1"));
  EXPECT_TRUE(HasColumnarExtension("x.Stf1"));
  EXPECT_FALSE(HasColumnarExtension("x.csv"));
  EXPECT_FALSE(HasColumnarExtension("stf1"));

  // A zero-length file is neither format: sniffing reports a structured
  // error instead of handing it to the CSV parser.
  const std::string empty_path = TempPath("columnar_sniff_empty.stf1");
  std::fclose(std::fopen(empty_path.c_str(), "wb"));
  auto empty_format = SniffTraceFormat(empty_path);
  ASSERT_FALSE(empty_format.ok());
  EXPECT_NE(empty_format.status().ToString().find("empty trace file"),
            std::string::npos);
  std::remove(empty_path.c_str());

  auto from_csv = ReadTraceAuto(csv_path);
  auto from_stf1 = ReadTraceAuto(stf1_path);
  ASSERT_TRUE(from_csv.ok());
  ASSERT_TRUE(from_stf1.ok());
  EXPECT_EQ(TraceToCsv(*from_csv), TraceToCsv(*from_stf1));
  std::remove(csv_path.c_str());
  std::remove(stf1_path.c_str());
}

// --- Load paths ----------------------------------------------------------

TEST(ColumnarTest, ReportIsByteIdenticalAcrossLoadPaths) {
  Trace original = BaseTrace(300);
  const std::string csv_path = TempPath("columnar_paths_report.csv");
  const std::string stf1_path = TempPath("columnar_paths_report.stf1");
  const std::string odd_path = TempPath("columnar_paths_report_odd.stf1");
  ASSERT_TRUE(WriteTraceCsv(original, csv_path).ok());
  ASSERT_TRUE(WriteTraceColumnar(original, stf1_path).ok());
  WriteBytes(odd_path, NonCanonicalEncoding(TraceToColumnarBytes(original)));

  auto odd_view = ColumnarTraceView::Open(odd_path);
  ASSERT_TRUE(odd_view.ok()) << odd_view.status().ToString();
  ASSERT_TRUE(odd_view->ValidateRows().ok());
  auto view = ColumnarTraceView::Open(stf1_path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  std::vector<std::string> reports;
  for (const char* threads : {"1", "4"}) {
    WithThreads(threads, [&] {
      auto from_csv = ReadTraceAuto(csv_path);
      auto from_stf1 = ReadTraceAuto(stf1_path);
      auto materialized = view->Materialize();
      auto fallback = ReadTraceAuto(odd_path);
      ASSERT_TRUE(from_csv.ok() && from_stf1.ok() && materialized.ok() &&
                  fallback.ok());
      reports.push_back(ReportOf(*from_csv));
      reports.push_back(ReportOf(*from_stf1));
      reports.push_back(ReportOf(*materialized));
      reports.push_back(ReportOf(*fallback));
      EXPECT_EQ(TraceToCsv(*fallback), TraceToCsv(*from_csv));
      // The non-canonical file loads into the canonical form.
      EXPECT_EQ(oracle::IdsOf(*fallback), oracle::IdsOf(*from_csv));
      EXPECT_EQ(oracle::IdsOf(*from_stf1), oracle::IdsOf(*from_csv));
    });
  }
  ASSERT_EQ(reports.size(), 8u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], reports[0]) << "source " << i % 4 << " at "
                                      << (i < 4 ? 1 : 4) << " threads";
  }
  std::remove(csv_path.c_str());
  std::remove(stf1_path.c_str());
  std::remove(odd_path.c_str());
}

TEST(ColumnarTest, LoadedTraceOwnsItsBytes) {
  // Run under ASan in CI: after the load, truncating and rewriting the
  // file and destroying the source trace must not reach any copy.
  Trace original = BaseTrace(120);
  const std::string expected_csv = TraceToCsv(original);
  const std::string path = TempPath("columnar_owned.stf1");
  ASSERT_TRUE(WriteTraceColumnar(original, path).ok());
  std::string expected_report;
  std::optional<Trace> copy;
  std::optional<Trace> early_copy;
  {
    auto loaded = LoadTraceColumnar(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    early_copy = *loaded;  // taken before any lazy build
    WriteBytes(path, "");  // truncate
    WriteBytes(path, TraceToColumnarBytes(BaseTrace(7)));  // overwrite
    EXPECT_EQ(TraceToCsv(*loaded), expected_csv);
    expected_report = ReportOf(*loaded);
    copy = *loaded;
  }
  // The source trace is gone; its copies still share the owned columns.
  EXPECT_EQ(ReportOf(*copy), expected_report);
  EXPECT_EQ(TraceToCsv(*copy), expected_csv);
  EXPECT_EQ(ReportOf(*early_copy), expected_report);
  EXPECT_EQ(TraceToCsv(*early_copy), expected_csv);

  // A mutation detaches the copy from the shared columns.
  Trace grown = *copy;
  JobRecord extra = original.jobs().back();
  extra.job_id = 9999;
  extra.submit_time += 1.0;
  grown.AddJob(extra);
  EXPECT_EQ(grown.size(), original.size() + 1);
  EXPECT_EQ(grown.jobs().back(), extra);
  EXPECT_EQ(TraceToCsv(*copy), expected_csv);
  std::remove(path.c_str());
}

// --- The corrupted-input ladder -------------------------------------------

TEST(ColumnarTest, RejectsTruncatedFile) {
  const std::string bytes = TraceToColumnarBytes(BaseTrace());
  // The file may end with alignment padding after the last payload, which
  // is legitimately removable; truncate into the payloads themselves.
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  size_t last_payload_end = 0;
  for (size_t i = 0; i < kStf1SectionCount; ++i) {
    Stf1Section section;
    std::memcpy(&section,
                bytes.data() + header.table_offset + i * sizeof(section),
                sizeof(section));
    last_payload_end =
        std::max<size_t>(last_payload_end, section.offset + section.bytes);
  }
  ASSERT_GT(last_payload_end, 640u);
  for (size_t keep : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{640}, last_payload_end - 1}) {
    auto result = TraceFromColumnarBytes(bytes.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "kept " << keep << " bytes";
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(ColumnarTest, RejectsBadMagic) {
  std::string bytes = TraceToColumnarBytes(BaseTrace());
  bytes[0] = 'X';
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos)
      << result.status().ToString();
}

TEST(ColumnarTest, RejectsWrongVersion) {
  std::string bytes = PatchHeader(
      TraceToColumnarBytes(BaseTrace()),
      [](Stf1Header* header) { header->version = 99; });
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos)
      << result.status().ToString();
}

TEST(ColumnarTest, RejectsHeaderChecksumMismatch) {
  std::string bytes = TraceToColumnarBytes(BaseTrace());
  // Flip a header byte without re-signing.
  bytes[static_cast<size_t>(offsetof(Stf1Header, job_count))] ^= 0x01;
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().ToString();
}

TEST(ColumnarTest, RejectsPayloadChecksumMismatch) {
  std::string bytes = TraceToColumnarBytes(BaseTrace());
  // Corrupt one payload byte, leaving header + table valid: only the
  // full-verification pass can catch it.
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  Stf1Section first;
  std::memcpy(&first, bytes.data() + header.table_offset, sizeof(first));
  bytes[first.offset] ^= 0x40;

  auto verified = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.status().message().find("checksum"), std::string::npos)
      << verified.status().ToString();

  // The same file opens as a view (structure is intact); VerifyChecksums
  // reports the damage.
  auto view = ColumnarTraceView::FromBytes(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->VerifyChecksums().ok());
}

TEST(ColumnarTest, RejectsOutOfRangeDictionaryId) {
  Trace t = BaseTrace();
  const uint32_t path_count =
      static_cast<uint32_t>(t.paths().size());
  std::string bytes = PatchSection(
      TraceToColumnarBytes(t), Stf1SectionKind::kInputPathIds,
      [&](std::string* image, const Stf1Section& section) {
        const uint32_t bogus = path_count;  // one past the last valid id
        std::memcpy(image->data() + section.offset, &bogus, sizeof(bogus));
      });
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(ColumnarTest, RejectsNonFiniteValues) {
  std::string bytes = PatchSection(
      TraceToColumnarBytes(BaseTrace()), Stf1SectionKind::kDuration,
      [](std::string* image, const Stf1Section& section) {
        const double nan = std::nan("");
        std::memcpy(image->data() + section.offset, &nan, sizeof(nan));
      });
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(ColumnarTest, RejectsSectionPointingPastEof) {
  std::string bytes = TraceToColumnarBytes(BaseTrace());
  Stf1Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  Stf1Section first;
  std::memcpy(&first, bytes.data() + header.table_offset, sizeof(first));
  first.offset = (bytes.size() + kStf1Alignment) & ~(kStf1Alignment - 1);
  std::memcpy(bytes.data() + header.table_offset, &first, sizeof(first));
  header.table_checksum =
      Checksum64(bytes.data() + header.table_offset, header.table_bytes);
  header.header_checksum =
      Checksum64(&header, offsetof(Stf1Header, header_checksum));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto result = TraceFromColumnarBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(ColumnarTest, OpenReportsMissingFile) {
  auto view = ColumnarTraceView::Open(TempPath("definitely_missing.stf1"));
  ASSERT_FALSE(view.ok());
  EXPECT_FALSE(view.status().message().empty());
}

// A directory opens and stats but is not a trace: every loader returns a
// structured IoError, never takes its st_size for a byte count. An empty
// file is a format error.
TEST(ColumnarTest, LoadersRejectADirectoryAndAnEmptyFile) {
  const std::string dir = TempPath("columnar_dir_input");
  std::filesystem::create_directories(dir);
  const std::string empty = TempPath("columnar_empty_input");
  std::fclose(std::fopen(empty.c_str(), "wb"));
  auto expect_error = [](const Status& status, StatusCode code,
                         const char* text) {
    EXPECT_EQ(status.code(), code) << status.ToString();
    EXPECT_NE(status.message().find(text), std::string::npos)
        << status.ToString();
  };
  expect_error(ReadTraceCsv(dir).status(), StatusCode::kIoError,
               "not a regular file");
  expect_error(LoadTraceColumnar(dir).status(), StatusCode::kIoError,
               "not a regular file");
  expect_error(ReadTraceCsv(empty).status(), StatusCode::kInvalidArgument,
               "missing CSV header");
  expect_error(LoadTraceColumnar(empty).status(),
               StatusCode::kInvalidArgument, "empty file");
  for (bool mmap : {true, false}) {
    ColumnarOptions options;
    options.allow_mmap = mmap;
    expect_error(ColumnarTraceView::Open(dir, options).status(),
                 StatusCode::kIoError, "not a regular file");
    expect_error(ColumnarTraceView::Open(empty, options).status(),
                 StatusCode::kInvalidArgument, "empty file");
  }
  std::filesystem::remove(dir);
  std::remove(empty.c_str());
}

TEST(ColumnarTest, RejectsNegativeMachinesOrYear) {
  const std::string bytes = TraceToColumnarBytes(BaseTrace());
  auto machines = TraceFromColumnarBytes(PatchHeader(
      bytes, [](Stf1Header* header) { header->machines = -5; }));
  ASSERT_FALSE(machines.ok());
  EXPECT_NE(machines.status().message().find("negative machines -5"),
            std::string::npos)
      << machines.status().ToString();
  auto year = TraceFromColumnarBytes(PatchHeader(
      bytes, [](Stf1Header* header) { header->year = -1; }));
  ASSERT_FALSE(year.ok());
  EXPECT_NE(year.status().message().find("negative year -1"),
            std::string::npos)
      << year.status().ToString();
}

TEST(ColumnarTest, FuzzedImagesNeverCrashTheReader) {
  const std::string pristine = TraceToColumnarBytes(BaseTrace());
  ASSERT_TRUE(TraceFromColumnarBytes(pristine).ok());
  const Stf1Mutator mutator(2012);
  for (uint64_t iteration = 0; iteration < 500; ++iteration) {
    const std::string mutated = mutator.Mutate(pristine, iteration);
    auto result = TraceFromColumnarBytes(mutated);
    if (result.ok()) {
      for (const JobRecord& job : result->jobs()) {
        EXPECT_TRUE(ValidateJobRecord(job).empty())
            << "iteration " << iteration;
      }
    } else {
      EXPECT_FALSE(result.status().message().empty())
          << "iteration " << iteration;
    }
  }
}

}  // namespace
}  // namespace swim::trace
