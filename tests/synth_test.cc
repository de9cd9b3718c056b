#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/units.h"
#include "core/synth/fidelity.h"
#include "core/synth/scale_down.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "gtest/gtest.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"
#include "workloads/workload_spec.h"
#include "trace_oracle.h"
#include "with_threads.h"

namespace swim::core {
namespace {

trace::Trace SourceTrace(size_t jobs = 4000, uint64_t seed = 42) {
  auto spec = workloads::PaperWorkloadByName("CC-b");
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  options.seed = seed;
  auto trace = workloads::GenerateTrace(*spec, options);
  SWIM_CHECK_OK(trace.status());
  return *std::move(trace);
}

// --- Model building -------------------------------------------------------

TEST(WorkloadModelTest, BuildCapturesBasics) {
  trace::Trace source = SourceTrace();
  auto model = BuildModel(source);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->source_name, "CC-b");
  EXPECT_EQ(model->total_jobs, source.size());
  EXPECT_EQ(model->exemplars.size(), source.size());  // under the cap
  EXPECT_FALSE(model->hourly_envelope.empty());
  EXPECT_TRUE(model->columns.input_paths);
  // Exemplars carry no paths.
  for (const auto& e : model->exemplars) {
    EXPECT_TRUE(e.input_path.empty());
    EXPECT_TRUE(e.output_path.empty());
  }
}

TEST(WorkloadModelTest, ExemplarCapRespected) {
  trace::Trace source = SourceTrace(3000);
  ModelOptions options;
  options.exemplar_cap = 500;
  auto model = BuildModel(source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->exemplars.size(), 500u);
  EXPECT_EQ(model->total_jobs, 3000u);
}

TEST(WorkloadModelTest, FitsFileModelFromTrace) {
  trace::Trace source = SourceTrace(6000);
  auto model = BuildModel(source);
  ASSERT_TRUE(model.ok());
  // CC-b spec: 40% input re-access + 15% output re-access.
  EXPECT_GT(model->file_model.input_reaccess_fraction, 0.2);
  EXPECT_GT(model->file_model.output_reaccess_fraction, 0.03);
  EXPECT_GT(model->file_model.zipf_slope, 0.3);
  EXPECT_LT(model->file_model.zipf_slope, 1.6);
  EXPECT_GT(model->file_model.recency_halflife_seconds, 60.0);
}

TEST(WorkloadModelTest, EmptyTraceFails) {
  trace::Trace empty;
  EXPECT_FALSE(BuildModel(empty).ok());
}

TEST(WorkloadModelTest, TextRoundTrip) {
  trace::Trace source = SourceTrace(800);
  auto model = BuildModel(source);
  ASSERT_TRUE(model.ok());
  std::string text = ModelToText(*model);
  auto restored = ModelFromText(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->source_name, model->source_name);
  EXPECT_EQ(restored->total_jobs, model->total_jobs);
  EXPECT_EQ(restored->exemplars.size(), model->exemplars.size());
  EXPECT_EQ(restored->hourly_envelope.size(), model->hourly_envelope.size());
  EXPECT_NEAR(restored->file_model.zipf_slope, model->file_model.zipf_slope,
              1e-9);
  EXPECT_EQ(restored->columns.names, model->columns.names);
}

TEST(WorkloadModelTest, FileRoundTrip) {
  trace::Trace source = SourceTrace(300);
  auto model = BuildModel(source);
  ASSERT_TRUE(model.ok());
  std::string path = ::testing::TempDir() + "/swim_model_test.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto restored = LoadModel(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->exemplars.size(), model->exemplars.size());
  std::remove(path.c_str());
}

TEST(WorkloadModelTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ModelFromText("").ok());
  EXPECT_FALSE(ModelFromText("not a model\n").ok());
  EXPECT_FALSE(ModelFromText("#swim-model v1\nspan=100\n").ok());
  EXPECT_FALSE(LoadModel("/nonexistent/model.txt").ok());
}

// `text` with the value of its `key=` line replaced by `value`.
std::string WithField(std::string text, const std::string& key,
                      const std::string& value) {
  const size_t begin = text.find("\n" + key + "=") + key.size() + 2;
  return text.replace(begin, text.find('\n', begin) - begin, value);
}

// Values that used to parse and then trip a SWIM_CHECK in the sampler
// construction of SynthesizeTrace (swim_synth gen aborted instead of
// reporting the bad model).
TEST(WorkloadModelTest, ParserRejectsValuesTheSamplersCannotTake) {
  auto model = BuildModel(SourceTrace(400));
  ASSERT_TRUE(model.ok());
  const std::string text = ModelToText(*model);
  ASSERT_TRUE(ModelFromText(text).ok());
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"file_model", "100,nan,0.3,0.1,0.6,10800"},   // zipf_slope NaN
      {"file_model", "100,-1,0.3,0.1,0.6,10800"},    // negative slope
      {"file_model", "100,0.8,nan,0.1,0.6,10800"},   // NaN probability
      {"file_model", "100,0.8,0.3,0.1,0.6,nan"},     // NaN half-life
      {"envelope", "1,2,-3,4"},                      // negative entry
      {"envelope", "1,nan,3"},                       // NaN entry
      {"envelope", "1,inf,3"},                       // infinite entry
      {"span", "inf"},
      {"span", "nan"},
  };
  for (const auto& [key, value] : bad) {
    auto parsed = ModelFromText(WithField(text, key, value));
    ASSERT_FALSE(parsed.ok()) << key << "=" << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << key << "=" << value;
  }
  // The same fields with sane values still parse.
  EXPECT_TRUE(
      ModelFromText(WithField(text, "file_model", "100,0,0,0,0,1")).ok());
  EXPECT_TRUE(ModelFromText(WithField(text, "envelope", "0,0,5")).ok());
}

// input_files is bounded by the uint32 path-id space; 9e18 used to end in
// an uncaught std::length_error in swim_synth gen.
TEST(WorkloadModelTest, ParserBoundsInputFilesByThePathIdSpace) {
  auto model = BuildModel(SourceTrace(400));
  ASSERT_TRUE(model.ok());
  const std::string text = ModelToText(*model);
  auto with_files = [&](uint64_t files) {
    return ModelFromText(WithField(text, "file_model",
                                   std::to_string(files) +
                                       ",0.8,0.3,0.1,0.6,10800"));
  };
  auto at_bound = with_files(workloads::kMaxInputFiles);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->file_model.input_files, workloads::kMaxInputFiles);
  for (uint64_t files : {uint64_t{workloads::kMaxInputFiles} + 1,
                         uint64_t{9000000000000000000u}}) {
    auto parsed = with_files(files);
    ASSERT_FALSE(parsed.ok()) << files;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << files;
  }
}

// total_jobs is bounded by the uint32 id space; 99999999999999 used to end
// in an uncaught std::bad_alloc in swim_synth gen.
TEST(WorkloadModelTest, ParserBoundsTotalJobsByTheIdSpace) {
  auto model = BuildModel(SourceTrace(400));
  ASSERT_TRUE(model.ok());
  const std::string text = ModelToText(*model);
  auto at_bound =
      ModelFromText(WithField(text, "total_jobs", std::to_string(kMaxJobs)));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->total_jobs, kMaxJobs);
  for (const std::string& jobs :
       {std::to_string(kMaxJobs + 1), std::string("99999999999999")}) {
    auto parsed = ModelFromText(WithField(text, "total_jobs", jobs));
    ASSERT_FALSE(parsed.ok()) << jobs;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << jobs;
  }
}

// --- Synthesis --------------------------------------------------------------

TEST(SynthesizerTest, ProducesRequestedJobs) {
  auto model = BuildModel(SourceTrace());
  ASSERT_TRUE(model.ok());
  SynthesisOptions options;
  options.job_count = 1000;
  auto synth = SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  EXPECT_EQ(synth->size(), 1000u);
  EXPECT_TRUE(oracle::ValidateTrace(*synth).ok());
  EXPECT_EQ(synth->metadata().name, "CC-b-synth");
}

TEST(SynthesizerTest, Deterministic) {
  auto model = BuildModel(SourceTrace(1000));
  SynthesisOptions options;
  options.seed = 77;
  options.job_count = 500;
  auto a = SynthesizeTrace(*model, options);
  auto b = SynthesizeTrace(*model, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->JobAt(i), b->JobAt(i));
  }
}

TEST(SynthesizerTest, EmpiricalFidelityIsHigh) {
  trace::Trace source = SourceTrace(6000);
  auto model = BuildModel(source);
  SynthesisOptions options;
  options.job_count = 6000;
  auto synth = SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  FidelityReport report = CompareTraces(source, *synth);
  // Whole-job resampling keeps every marginal close.
  EXPECT_LT(report.max_ks, 0.08) << FormatFidelity(report);
}

TEST(SynthesizerTest, ParametricBaselineIsWorse) {
  trace::Trace source = SourceTrace(6000);
  auto model = BuildModel(source);
  SynthesisOptions empirical;
  empirical.job_count = 6000;
  SynthesisOptions parametric = empirical;
  parametric.method = SynthesisMethod::kParametricLognormal;
  auto synth_e = SynthesizeTrace(*model, empirical);
  auto synth_p = SynthesizeTrace(*model, parametric);
  ASSERT_TRUE(synth_e.ok());
  ASSERT_TRUE(synth_p.ok());
  double ks_e = CompareTraces(source, *synth_e).max_ks;
  double ks_p = CompareTraces(source, *synth_p).max_ks;
  // The paper's section 7 position: closed-form per-dimension fits cannot
  // reproduce these workloads; the empirical model must dominate.
  EXPECT_LT(ks_e, ks_p);
  EXPECT_GT(ks_p, 0.15);
}

TEST(SynthesizerTest, SpanCompressionScalesArrivals) {
  auto model = BuildModel(SourceTrace(2000));
  SynthesisOptions options;
  options.job_count = 2000;
  options.span_seconds = model->span_seconds / 4.0;
  auto synth = SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  EXPECT_LE(synth->EndTime(), options.span_seconds + 13 * kHour);
}

TEST(SynthesizerTest, RejectsEmptyModel) {
  WorkloadModel model;
  model.span_seconds = 100;
  EXPECT_FALSE(SynthesizeTrace(model).ok());
}

// Options that used to abort (std::bad_alloc on the row vector) or
// silently produce NaN rows are rejected up front.
TEST(SynthesizerTest, RejectsUnusableOptions) {
  auto model = BuildModel(SourceTrace(400));
  ASSERT_TRUE(model.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SynthesisOptions> bad;
  bad.emplace_back().job_count = kMaxJobs + 1;
  bad.emplace_back().job_count = 99999999999999u;
  for (double v : {nan, inf, -inf, -0.1}) {
    bad.emplace_back().jitter_sigma = v;
    bad.emplace_back().span_seconds = v;
  }
  for (const SynthesisOptions& options : bad) {
    auto synth = SynthesizeTrace(*model, options);
    ASSERT_FALSE(synth.ok()) << options.job_count << " "
                             << options.jitter_sigma << " "
                             << options.span_seconds;
    EXPECT_EQ(synth.status().code(), StatusCode::kInvalidArgument);
  }
  // The model's own count is bounded too when job_count defers to it.
  WorkloadModel huge = *model;
  huge.total_jobs = 99999999999999u;
  auto synth = SynthesizeTrace(huge);
  ASSERT_FALSE(synth.ok());
  EXPECT_EQ(synth.status().code(), StatusCode::kInvalidArgument);
  // Zero jitter is a plain resample.
  SynthesisOptions plain;
  plain.job_count = 50;
  plain.jitter_sigma = 0.0;
  EXPECT_TRUE(SynthesizeTrace(*model, plain).ok());
}

// --- Golden synthesis digests ----------------------------------------------

uint64_t Digest(const std::string& text) {
  return Checksum64(text.data(), text.size());
}

trace::Trace GoldenSource(const char* workload) {
  auto spec = workloads::PaperWorkloadByName(workload);
  SWIM_CHECK_OK(spec.status());
  workloads::GeneratorOptions options;
  options.job_count_override = 3000;
  options.seed = 42;
  auto trace = workloads::GenerateTrace(*spec, options);
  SWIM_CHECK_OK(trace.status());
  return *std::move(trace);
}

struct GoldenSynthesis {
  SynthesisMethod method;
  size_t jobs;
  uint64_t csv_digest;
};

struct GoldenModel {
  const char* workload;
  uint64_t model_digest;
  std::vector<GoldenSynthesis> syntheses;
};

// XXH64 of the model text and of each synthesized trace's CSV. FB-2010
// carries input paths only; CC-b adds names and output paths, so
// DecorateJobName and the output history run. The exemplar cap sits below
// the source size so the reservoir replaces, and the largest synthesis
// spans more than one 64k-job block. The values must hold at every lane
// count and across any rewrite of BuildModel or SynthesizeTrace.
TEST(SynthesisGoldenTest, DigestsArePinnedAtAnyLaneCount) {
  const std::vector<GoldenModel> golden = {
      {"FB-2010",
       0x7990ec8716945305ull,
       {{SynthesisMethod::kEmpirical, 70000, 0x75dadb4c2b0b91c4ull},
        {SynthesisMethod::kParametricLognormal, 5000, 0x905713e689727959ull}}},
      {"CC-b",
       0xdb2ac220aecd8908ull,
       {{SynthesisMethod::kEmpirical, 20000, 0x37ba82cb4aa422ceull},
        {SynthesisMethod::kParametricLognormal, 5000, 0xc888411963e8457eull}}},
  };
  for (const GoldenModel& g : golden) {
    const trace::Trace source = GoldenSource(g.workload);
    for (const char* threads : {"1", "4"}) {
      SCOPED_TRACE(std::string(g.workload) + " SWIM_THREADS=" + threads);
      WithThreads(threads, [&] {
        ModelOptions model_options;
        model_options.exemplar_cap = 1000;
        auto model = BuildModel(source, model_options);
        ASSERT_TRUE(model.ok()) << model.status();
        EXPECT_EQ(Digest(ModelToText(*model)), g.model_digest);
        for (const GoldenSynthesis& s : g.syntheses) {
          SynthesisOptions options;
          options.job_count = s.jobs;
          options.method = s.method;
          auto synth = SynthesizeTrace(*model, options);
          ASSERT_TRUE(synth.ok()) << synth.status();
          EXPECT_EQ(Digest(trace::TraceToCsv(*synth)), s.csv_digest)
              << "jobs=" << s.jobs;
        }
      });
    }
  }
}

// --- Fidelity metric ----------------------------------------------------------

TEST(FidelityTest, IdenticalTracesScoreZero) {
  trace::Trace source = SourceTrace(500);
  FidelityReport report = CompareTraces(source, source);
  EXPECT_DOUBLE_EQ(report.max_ks, 0.0);
  for (const auto& d : report.dimensions) {
    EXPECT_DOUBLE_EQ(d.ks_distance, 0.0);
  }
  EXPECT_EQ(report.dimensions.size(), 6u);
}

TEST(FidelityTest, FormatMentionsDimensions) {
  trace::Trace source = SourceTrace(200);
  std::string text = FormatFidelity(CompareTraces(source, source));
  EXPECT_NE(text.find("input_bytes"), std::string::npos);
  EXPECT_NE(text.find("reduce_task_seconds"), std::string::npos);
}

// --- Scale-down ------------------------------------------------------------------

TEST(ScaleDownTest, JobFractionThins) {
  trace::Trace source = SourceTrace(4000);
  ScaleDownOptions options;
  options.job_fraction = 0.25;
  auto scaled = ScaleDownTrace(source, options);
  ASSERT_TRUE(scaled.ok());
  EXPECT_NEAR(static_cast<double>(scaled->size()), 1000.0, 120.0);
  // Per-job dimensions unchanged: distributions stay close.
  FidelityReport report = CompareTraces(source, *scaled);
  EXPECT_LT(report.max_ks, 0.05);
}

TEST(ScaleDownTest, TimeFactorCompresses) {
  trace::Trace source = SourceTrace(1000);
  ScaleDownOptions options;
  options.time_factor = 0.5;
  auto scaled = ScaleDownTrace(source, options);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(scaled->size(), source.size());
  EXPECT_NEAR(scaled->JobAt(0).submit_time, source.JobAt(0).submit_time * 0.5, 1e-6);
}

TEST(ScaleDownTest, DataFactorShrinksBytesAndTasks) {
  trace::Trace source = SourceTrace(1000);
  ScaleDownOptions options;
  options.data_factor = 0.1;
  auto scaled = ScaleDownTrace(source, options);
  ASSERT_TRUE(scaled.ok());
  double source_bytes = 0, scaled_bytes = 0;
  for (const auto& j : source.jobs()) source_bytes += j.TotalBytes();
  for (const auto& j : scaled->jobs()) scaled_bytes += j.TotalBytes();
  EXPECT_NEAR(scaled_bytes, source_bytes * 0.1, source_bytes * 0.001);
  for (const auto& j : scaled->jobs()) {
    EXPECT_GE(j.map_tasks, 1);
    if (j.reduce_task_seconds > 0) {
      EXPECT_GE(j.reduce_tasks, 1);
    }
  }
  EXPECT_TRUE(oracle::ValidateTrace(*scaled).ok());
}

TEST(ScaleDownTest, RejectsBadOptions) {
  trace::Trace source = SourceTrace(10);
  ScaleDownOptions options;
  options.job_fraction = 0.0;
  EXPECT_FALSE(ScaleDownTrace(source, options).ok());
  options = {};
  options.time_factor = -1;
  EXPECT_FALSE(ScaleDownTrace(source, options).ok());
  options = {};
  options.data_factor = 0;
  EXPECT_FALSE(ScaleDownTrace(source, options).ok());
}

}  // namespace
}  // namespace swim::core
