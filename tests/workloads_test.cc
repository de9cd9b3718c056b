#include <cstdio>
#include <set>
#include <string>

#include "common/checksum.h"
#include "common/units.h"
#include "gtest/gtest.h"
#include "common/string_util.h"
#include "trace/trace_io.h"
#include "workloads/name_generator.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"
#include "workloads/workload_spec.h"
#include "with_threads.h"

namespace swim::workloads {
namespace {

WorkloadSpec TinySpec() {
  WorkloadSpec spec;
  spec.metadata.name = "tiny";
  spec.total_jobs = 500;
  spec.span_seconds = 2 * kDay;
  JobTypeSpec small;
  small.label = "Small jobs";
  small.count_weight = 9;
  small.input_bytes = 1 * kMB;
  small.output_bytes = 100 * kKB;
  small.duration_seconds = 30;
  small.map_task_seconds = 20;
  JobTypeSpec big;
  big.label = "Aggregate";
  big.count_weight = 1;
  big.input_bytes = 1 * kTB;
  big.shuffle_bytes = 10 * kGB;
  big.output_bytes = 1 * kGB;
  big.duration_seconds = kHour;
  big.map_task_seconds = 100000;
  big.reduce_task_seconds = 20000;
  spec.job_types = {small, big};
  spec.default_name_words = {{"ad", 3}, {"insert", 1}};
  return spec;
}

// --- Spec validation ------------------------------------------------------

TEST(WorkloadSpecTest, TinySpecIsValid) {
  EXPECT_TRUE(ValidateSpec(TinySpec()).ok());
}

TEST(WorkloadSpecTest, RejectsMissingName) {
  WorkloadSpec spec = TinySpec();
  spec.metadata.name.clear();
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST(WorkloadSpecTest, RejectsZeroJobs) {
  WorkloadSpec spec = TinySpec();
  spec.total_jobs = 0;
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST(WorkloadSpecTest, RejectsEmptyMixture) {
  WorkloadSpec spec = TinySpec();
  spec.job_types.clear();
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST(WorkloadSpecTest, RejectsNegativeDimension) {
  WorkloadSpec spec = TinySpec();
  spec.job_types[0].input_bytes = -1;
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST(WorkloadSpecTest, RejectsZeroTotalWeight) {
  WorkloadSpec spec = TinySpec();
  for (auto& jt : spec.job_types) jt.count_weight = 0;
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST(WorkloadSpecTest, RejectsBadProbabilities) {
  WorkloadSpec spec = TinySpec();
  spec.files.input_reaccess_fraction = 0.8;
  spec.files.output_reaccess_fraction = 0.5;  // sums above 1
  EXPECT_FALSE(ValidateSpec(spec).ok());
  spec = TinySpec();
  spec.arrival.diurnal_strength = 1.5;
  EXPECT_FALSE(ValidateSpec(spec).ok());
  spec = TinySpec();
  spec.arrival.burst_autocorrelation = 1.0;
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

// --- Name generation --------------------------------------------------------

TEST(NameGeneratorTest, DecorationPreservesFirstWord) {
  Pcg32 rng(3);
  for (const char* word : {"insert", "select", "piglatin", "oozie", "ad"}) {
    std::string name = DecorateJobName(word, 417, rng);
    EXPECT_EQ(FirstWordOfJobName(name), word) << name;
  }
}

// --- Generator ---------------------------------------------------------------

TEST(TraceGeneratorTest, ProducesRequestedJobCount) {
  auto trace = GenerateTrace(TinySpec());
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 500u);
  EXPECT_TRUE(trace->Validate().ok());
}

TEST(TraceGeneratorTest, JobCountOverride) {
  GeneratorOptions options;
  options.job_count_override = 77;
  auto trace = GenerateTrace(TinySpec(), options);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 77u);
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  GeneratorOptions options;
  options.seed = 1234;
  auto a = GenerateTrace(TinySpec(), options);
  auto b = GenerateTrace(TinySpec(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(trace::TraceToCsv(*a), trace::TraceToCsv(*b));
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions a_options, b_options;
  a_options.seed = 1;
  b_options.seed = 2;
  auto a = GenerateTrace(TinySpec(), a_options);
  auto b = GenerateTrace(TinySpec(), b_options);
  EXPECT_NE(trace::TraceToCsv(*a), trace::TraceToCsv(*b));
}

TEST(TraceGeneratorTest, SubmitTimesWithinSpan) {
  auto trace = GenerateTrace(TinySpec());
  ASSERT_TRUE(trace.ok());
  for (const auto& job : trace->jobs()) {
    EXPECT_GE(job.submit_time, 0.0);
    EXPECT_LE(job.submit_time, 2 * kDay);
  }
}

TEST(TraceGeneratorTest, MixtureSharesRoughlyRespected) {
  GeneratorOptions options;
  options.job_count_override = 5000;
  auto trace = GenerateTrace(TinySpec(), options);
  ASSERT_TRUE(trace.ok());
  size_t big = 0;
  for (const auto& job : trace->jobs()) {
    if (job.TotalBytes() > 10 * kGB) ++big;
  }
  // Big class weight is 10%; lognormal spread blurs the boundary.
  EXPECT_GT(big, 250u);
  EXPECT_LT(big, 900u);
}

TEST(TraceGeneratorTest, ColumnsRespectAvailability) {
  WorkloadSpec spec = TinySpec();
  spec.columns.names = false;
  spec.columns.input_paths = false;
  spec.columns.output_paths = false;
  auto trace = GenerateTrace(spec);
  ASSERT_TRUE(trace.ok());
  for (const auto& job : trace->jobs()) {
    EXPECT_TRUE(job.name.empty());
    EXPECT_TRUE(job.input_path.empty());
    EXPECT_TRUE(job.output_path.empty());
  }
}

TEST(TraceGeneratorTest, MapOnlyClassesHaveNoReduces) {
  WorkloadSpec spec = TinySpec();
  spec.job_types[1].shuffle_bytes = 0;
  spec.job_types[1].reduce_task_seconds = 0;
  auto trace = GenerateTrace(spec);
  ASSERT_TRUE(trace.ok());
  for (const auto& job : trace->jobs()) {
    EXPECT_EQ(job.shuffle_bytes, 0.0);
    EXPECT_EQ(job.reduce_tasks, 0);
    EXPECT_EQ(job.reduce_task_seconds, 0.0);
  }
}

TEST(TraceGeneratorTest, RejectsInvalidSpec) {
  WorkloadSpec spec = TinySpec();
  spec.total_jobs = 0;
  EXPECT_FALSE(GenerateTrace(spec).ok());
}

/// A job count past the uint32 row-index space is an InvalidArgument
/// status, from the override or from the spec, never an exception.
TEST(TraceGeneratorTest, RejectsJobCountBeyondRowIndexSpace) {
  GeneratorOptions options;
  options.job_count_override = trace::kMaxJobs + 1;
  auto trace = GenerateTrace(TinySpec(), options);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  WorkloadSpec spec = TinySpec();
  spec.total_jobs = static_cast<size_t>(-5);
  trace = GenerateTrace(spec);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
}

// --- Paper workload catalog ----------------------------------------------------

TEST(PaperWorkloadsTest, AllSevenPresentAndValid) {
  auto specs = AllPaperWorkloads();
  ASSERT_EQ(specs.size(), 7u);
  std::set<std::string> names;
  for (const auto& spec : specs) {
    EXPECT_TRUE(ValidateSpec(spec).ok()) << spec.metadata.name;
    names.insert(spec.metadata.name);
  }
  EXPECT_EQ(names.size(), 7u);
  EXPECT_TRUE(names.count("FB-2009"));
  EXPECT_TRUE(names.count("CC-e"));
}

TEST(PaperWorkloadsTest, LookupByName) {
  auto spec = PaperWorkloadByName("FB-2010");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->metadata.year, 2010);
  EXPECT_FALSE(spec->columns.names);  // FB-2010 trace has no job names
  EXPECT_FALSE(PaperWorkloadByName("FB-2011").ok());
}

TEST(PaperWorkloadsTest, Table1JobTotalsTranscribed) {
  // Job totals from Table 1.
  EXPECT_EQ(PaperWorkloadByName("CC-a")->total_jobs, 5759u);
  EXPECT_EQ(PaperWorkloadByName("CC-b")->total_jobs, 22974u);
  EXPECT_EQ(PaperWorkloadByName("CC-c")->total_jobs, 21030u);
  EXPECT_EQ(PaperWorkloadByName("CC-d")->total_jobs, 13283u);
  EXPECT_EQ(PaperWorkloadByName("CC-e")->total_jobs, 10790u);
  EXPECT_EQ(PaperWorkloadByName("FB-2009")->total_jobs, 1129193u);
  EXPECT_EQ(PaperWorkloadByName("FB-2010")->total_jobs, 1169184u);
}

TEST(PaperWorkloadsTest, Table2WeightsSumToTable1Totals) {
  // The Table 2 cluster sizes partition each workload's job count.
  for (const auto& spec : AllPaperWorkloads()) {
    double weight_sum = 0;
    for (const auto& jt : spec.job_types) weight_sum += jt.count_weight;
    EXPECT_NEAR(weight_sum, static_cast<double>(spec.total_jobs), 0.5)
        << spec.metadata.name;
  }
}

TEST(PaperWorkloadsTest, SmallJobsDominateEverySpec) {
  for (const auto& spec : AllPaperWorkloads()) {
    double weight_sum = 0;
    double largest = 0;
    for (const auto& jt : spec.job_types) {
      weight_sum += jt.count_weight;
      largest = std::max(largest, jt.count_weight);
    }
    EXPECT_GT(largest / weight_sum, 0.9) << spec.metadata.name;
  }
}

TEST(PaperWorkloadsTest, FacebookTracesLackPaths) {
  EXPECT_FALSE(PaperWorkloadByName("FB-2009")->columns.input_paths);
  EXPECT_FALSE(PaperWorkloadByName("CC-a")->columns.input_paths);
  EXPECT_TRUE(PaperWorkloadByName("FB-2010")->columns.input_paths);
  EXPECT_FALSE(PaperWorkloadByName("FB-2010")->columns.output_paths);
}

/// Generating a scaled-down instance of every paper workload must succeed
/// and respect structural invariants.
class PaperWorkloadGenerationTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperWorkloadGenerationTest, ScaledGenerationIsValid) {
  auto spec = PaperWorkloadByName(GetParam());
  ASSERT_TRUE(spec.ok());
  GeneratorOptions options;
  options.job_count_override = 3000;
  options.seed = 7;
  auto trace = GenerateTrace(*spec, options);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 3000u);
  EXPECT_TRUE(trace->Validate().ok());
  EXPECT_EQ(trace->metadata().name, GetParam());
  // Column availability must match the spec.
  bool any_name = false, any_input = false, any_output = false;
  for (const auto& job : trace->jobs()) {
    any_name |= !job.name.empty();
    any_input |= !job.input_path.empty();
    any_output |= !job.output_path.empty();
  }
  EXPECT_EQ(any_name, spec->columns.names);
  EXPECT_EQ(any_input, spec->columns.input_paths);
  EXPECT_EQ(any_output, spec->columns.output_paths);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PaperWorkloadGenerationTest,
                         ::testing::ValuesIn(PaperWorkloadNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Golden generator + encoder digests -------------------------------------

/// XXH64 of TraceToCsv(GenerateTrace(workload)) at the default seed, for
/// every paper workload at 20k jobs and FB-2010 at 200k, at one and four
/// lanes. Pinned on the serial generator and the serial CSV encoder that
/// predate the parallel row fill and the chunked encoder.
TEST(TraceGeneratorTest, GoldenCsvDigestsAtAnyThreadCount) {
  struct Golden {
    const char* workload;
    size_t jobs;
    const char* csv_digest;
  };
  const Golden goldens[] = {
      {"CC-a", 20000, "4e3a03fd792123c3"},
      {"CC-b", 20000, "08fd79c1a73733dc"},
      {"CC-c", 20000, "09fd22311d1ded83"},
      {"CC-d", 20000, "1e957cb7b8c67fb4"},
      {"CC-e", 20000, "4ec628f7a1262097"},
      {"FB-2009", 20000, "6458b57fdc20e516"},
      {"FB-2010", 20000, "c042d52c69e99471"},
      {"FB-2010", 200000, "b326482397596738"},
  };
  ASSERT_EQ(PaperWorkloadNames().size(), 7u);
  for (const Golden& g : goldens) {
    auto spec = PaperWorkloadByName(g.workload);
    ASSERT_TRUE(spec.ok());
    GeneratorOptions options;
    options.job_count_override = g.jobs;
    for (const char* threads : {"1", "4"}) {
      SCOPED_TRACE(std::string(g.workload) + " jobs=" +
                   std::to_string(g.jobs) + " SWIM_THREADS=" + threads);
      WithThreads(threads, [&] {
        auto trace = GenerateTrace(*spec, options);
        ASSERT_TRUE(trace.ok()) << trace.status();
        const std::string csv = trace::TraceToCsv(*trace);
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(
                          Checksum64(csv.data(), csv.size())));
        EXPECT_EQ(std::string(hex), g.csv_digest);
      });
    }
  }
}

}  // namespace
}  // namespace swim::workloads
