#include <cstdint>
#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/spec_io.h"
#include "workloads/trace_generator.h"

namespace swim::workloads {
namespace {

TEST(SpecIoTest, RoundTripsEveryPaperWorkload) {
  for (const auto& source : AllPaperWorkloads()) {
    auto restored = SpecFromText(SpecToText(source));
    ASSERT_TRUE(restored.ok()) << source.metadata.name << ": "
                               << restored.status();
    EXPECT_EQ(restored->metadata.name, source.metadata.name);
    EXPECT_EQ(restored->metadata.machines, source.metadata.machines);
    EXPECT_EQ(restored->total_jobs, source.total_jobs);
    EXPECT_DOUBLE_EQ(restored->span_seconds, source.span_seconds);
    ASSERT_EQ(restored->job_types.size(), source.job_types.size());
    for (size_t i = 0; i < source.job_types.size(); ++i) {
      EXPECT_EQ(restored->job_types[i].label, source.job_types[i].label);
      EXPECT_DOUBLE_EQ(restored->job_types[i].input_bytes,
                       source.job_types[i].input_bytes);
      EXPECT_DOUBLE_EQ(restored->job_types[i].log_sigma,
                       source.job_types[i].log_sigma);
      EXPECT_EQ(restored->job_types[i].name_words.size(),
                source.job_types[i].name_words.size());
    }
    EXPECT_EQ(restored->columns.names, source.columns.names);
    EXPECT_DOUBLE_EQ(restored->files.zipf_slope, source.files.zipf_slope);
    EXPECT_DOUBLE_EQ(restored->arrival.burst_log_sigma,
                     source.arrival.burst_log_sigma);
  }
}

TEST(SpecIoTest, RoundTripGeneratesIdenticalTrace) {
  auto source = PaperWorkloadByName("CC-e");
  auto restored = SpecFromText(SpecToText(*source));
  ASSERT_TRUE(restored.ok());
  GeneratorOptions options;
  options.job_count_override = 500;
  auto a = GenerateTrace(*source, options);
  auto b = GenerateTrace(*restored, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(trace::TraceToCsv(*a), trace::TraceToCsv(*b));
}

TEST(SpecIoTest, FileRoundTrip) {
  auto source = PaperWorkloadByName("CC-b");
  std::string path = ::testing::TempDir() + "/swim_spec_test.spec";
  ASSERT_TRUE(SaveSpec(*source, path).ok());
  auto restored = LoadSpec(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->metadata.name, "CC-b");
  std::remove(path.c_str());
}

TEST(SpecIoTest, CommentsAndBlankLinesIgnored) {
  std::string text = SpecToText(*PaperWorkloadByName("CC-a"));
  text.insert(text.find('\n') + 1, "\n# a comment\n\n");
  auto restored = SpecFromText(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
}

TEST(SpecIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(SpecFromText("").ok());
  EXPECT_FALSE(SpecFromText("not a spec\n").ok());
  EXPECT_FALSE(SpecFromText("#swim-spec v1\nbogus_key=1\n").ok());
  EXPECT_FALSE(SpecFromText("#swim-spec v1\nname=x\njob_type=a|b\n").ok());
  // Structurally valid but semantically invalid (no job types).
  EXPECT_FALSE(SpecFromText("#swim-spec v1\nname=x\ntotal_jobs=10\n"
                            "span_seconds=100\n")
                   .ok());
  EXPECT_FALSE(LoadSpec("/nonexistent/x.spec").ok());
}

// input_files is bounded by the uint32 path-id space (kMaxInputFiles).
TEST(SpecIoTest, InputFilesBoundedByThePathIdSpace) {
  const std::string text = SpecToText(*PaperWorkloadByName("CC-a"));
  auto with_files = [&](uint64_t files) {
    std::string edited = text;
    const size_t begin = edited.find("\nfiles=") + 7;
    edited.replace(begin, edited.find(',', begin) - begin,
                   std::to_string(files));
    return SpecFromText(edited);
  };
  auto at_bound = with_files(kMaxInputFiles);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->files.input_files, kMaxInputFiles);
  auto past_bound = with_files(uint64_t{kMaxInputFiles} + 1);
  ASSERT_FALSE(past_bound.ok());
  EXPECT_EQ(past_bound.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecIoTest, HandMadeMinimalSpecWorks) {
  std::string text =
      "#swim-spec v1\n"
      "name=custom\n"
      "total_jobs=100\n"
      "span_seconds=3600\n"
      "job_type=Small jobs|1|1000|0|100|10|5|0|0.5|ad:1\n";
  auto spec = SpecFromText(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto trace = GenerateTrace(*spec);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 100u);
}

}  // namespace
}  // namespace swim::workloads
