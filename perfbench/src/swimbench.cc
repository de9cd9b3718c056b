// swimbench: the swimcpp benchmark harness.
//
//   swimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Generates the workload's inputs from the seed (set-up, timed as
// setup_s), then runs a closed loop with one client: every operation of
// the user pipeline (analyze a CSV and an STF1 trace, stream-analyze the
// STF1 file, fit and synthesize a SWIM model, replay under five policies,
// run a what-if sweep) starts after the previous one finishes. Each
// operation's output is checked; the end-to-end metrics are medians over
// the loop's rounds. With --trace 1 it instead times each layer's public
// calls inside spans and reports the per-layer metrics. The last stdout
// line is one JSON object; see README.md for the metric list.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/streaming.h"
#include "core/analysis/temporal.h"
#include "core/analysis/workload_report.h"
#include "core/synth/fidelity.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "spans.h"
#include "trace/columnar.h"
#include "trace/summary.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace {

using swim::Status;
using swim::StatusOr;
using swimbench::ScopedSpan;
using swimbench::SpanRecorder;
namespace core = swim::core;
namespace sim = swim::sim;
namespace trace = swim::trace;
namespace workloads = swim::workloads;
using Clock = std::chrono::steady_clock;

constexpr const char* kPolicies[] = {"fifo", "fair", "two-tier", "srpt",
                                     "deadline"};
/// Parallel sites run at min(nproc, kMaxLanes) lanes.
constexpr int kMaxLanes = 4;
/// setup_s is the median of this many complete set-ups.
constexpr int kSetupRepeats = 3;
/// The what-if grid: 5 policies x these cluster sizes x 8 failure seeds.
constexpr int kSweepNodes[] = {50, 100, 300};
constexpr uint64_t kSweepSeeds = 8;

/// What a workload generates. Every workload runs the whole pipeline; the
/// sizes decide which layer dominates its time.
struct WorkloadConfig {
  const char* name;
  /// FB-2010 jobs written to CSV and STF1, analyzed and synthesized.
  size_t analysis_jobs;
  /// FB-2010 jobs replayed; 0 replays the analysis trace itself.
  size_t replay_jobs;
  int replay_nodes;
};

constexpr WorkloadConfig kWorkloads[] = {
    // Analysis-bound: 1M jobs through parse, analysis and synthesis; the
    // replays and the sweep run on small inputs.
    {"analyze-1m", 1000000, 50000, 150},
    // 63% utilization: runnable sets grow and PickJob scans dominate.
    {"replay-saturated", 200000, 0, 300},
    // 31% utilization: runnable sets stay small.
    {"replay-unsaturated", 200000, 0, 600},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

/// Wall and CPU (user + sys, all threads) time of one timed region.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(CpuSeconds()) {}
  Timing Elapsed() const {
    return {std::chrono::duration<double>(Clock::now() - wall_).count(),
            CpuSeconds() - cpu_};
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// --- Host-speed calibration -------------------------------------------------

/// On a shared host the same call varies by 20% and more from one run to
/// the next as neighbours load the shared caches and memory (CPU time
/// tracks wall time, so this is lost speed, not lost CPU). A fixed kernel
/// (sorting the same 2^17 doubles; the median of three sorts) is timed
/// before every operation, and each end-to-end time is scaled by
/// kReferenceSeconds / (the mean of the kernel times just before and just
/// after it): the operation's time with the host at its reference speed.
/// The kernel is benchmark code, so no change to the libraries moves it.
class Calibration {
 public:
  static constexpr double kReferenceSeconds = 0.01;

  Calibration() : input_(size_t{1} << 17) {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (double& value : input_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      value = static_cast<double>(x >> 11);
    }
  }

  /// Times the kernel; returns its seconds.
  double Sample() {
    std::vector<double> sorts;
    for (int i = 0; i < 3; ++i) {
      std::vector<double> copy = input_;
      const Clock::time_point start = Clock::now();
      std::sort(copy.begin(), copy.end());
      sorts.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
    samples_.push_back(Median(sorts));
    return samples_.back();
  }

  double median_s() const { return Median(samples_); }
  size_t samples() const { return samples_.size(); }
  /// Index of the latest kernel sample.
  size_t latest() const { return samples_.size() - 1; }
  /// `seconds`, measured right after kernel sample `index`, at the
  /// reference speed.
  double Scale(double seconds, size_t index) const {
    const size_t after = std::min(index + 1, samples_.size() - 1);
    return seconds * kReferenceSeconds /
           (0.5 * (samples_[index] + samples_[after]));
  }

 private:
  std::vector<double> input_;
  std::vector<double> samples_;
};

// --- Digests -------------------------------------------------------------

/// Chains XXH64 over a sequence of fields.
class Digest {
 public:
  template <typename T>
  Digest& Add(const T& value) {
    hash_ = swim::Checksum64(&value, sizeof(value), hash_);
    return *this;
  }
  Digest& AddString(std::string_view text) {
    Add(text.size());
    hash_ = swim::Checksum64(text.data(), text.size(), hash_);
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0;
};

uint64_t ReplayDigest(const sim::ReplayResult& result) {
  Digest digest;
  digest.AddString(result.scheduler);
  for (const sim::JobOutcome& o : result.outcomes) {
    digest.Add(o.job_id).Add(o.submit_time).Add(o.latency).Add(o.ideal_latency)
        .Add(o.is_small).Add(o.retries).Add(o.deadline).Add(o.missed_sla)
        .Add(o.tenant).Add(o.preempted_tasks).Add(o.admission_delay);
  }
  const sim::FailureStats& f = result.failures;
  digest.Add(result.unfinished_jobs).Add(f.task_failures).Add(f.node_losses)
      .Add(f.tasks_lost_to_nodes).Add(f.retries).Add(f.failed_jobs)
      .Add(f.failed_task_seconds);
  const sim::SlaStats& s = result.sla;
  digest.Add(s.small_jobs_with_deadline).Add(s.large_jobs_with_deadline)
      .Add(s.small_misses).Add(s.large_misses).Add(s.preemption_rounds)
      .Add(s.preempted_tasks).Add(s.admission_parked_jobs)
      .Add(s.total_admission_delay);
  for (double hour : result.hourly_occupancy) digest.Add(hour);
  digest.Add(result.makespan).Add(result.utilization);
  return digest.value();
}

uint64_t TraceDigest(const trace::Trace& t) {
  Digest digest;
  for (const trace::JobRecord& j : t.jobs()) {
    digest.Add(j.job_id).AddString(j.name).Add(j.submit_time).Add(j.duration)
        .Add(j.input_bytes).Add(j.shuffle_bytes).Add(j.output_bytes)
        .Add(j.map_tasks).Add(j.reduce_tasks).Add(j.map_task_seconds)
        .Add(j.reduce_task_seconds).AddString(j.input_path)
        .AddString(j.output_path);
  }
  return digest.value();
}

uint64_t TextDigest(std::string_view text) {
  return Digest().AddString(text).value();
}

// --- Set-up ----------------------------------------------------------------

struct Inputs {
  trace::Trace source;  // FB-2010 as generated; the CSV and STF1 files hold it
  trace::Trace replay;  // separate replay input; empty when source is replayed
  trace::Trace ccb;     // CC-b at its native size, for the what-if sweep

  const trace::Trace& replay_trace() const {
    return replay.empty() ? source : replay;
  }
};

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return swim::IoError("cannot open " + path);
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), out) ==
                     bytes.size();
  if (std::fclose(out) != 0 || !wrote) {
    return swim::IoError("short write to " + path);
  }
  return Status();
}

/// A paper workload drawn at the generator's fixed base seed, with every
/// job's offset within its submit hour re-drawn from `seed`. The generator
/// itself draws that offset uniformly within the hour, so each seed gives
/// different inputs with the same job mix, hourly envelope and load. Whole
/// draws per seed would not do: the heavy-tailed job mix moves saturated
/// FIFO replay time by 35% (IQR over median) from one draw to the next.
StatusOr<trace::Trace> Generate(const std::string& workload, uint64_t seed,
                                size_t jobs) {
  SWIM_ASSIGN_OR_RETURN(workloads::WorkloadSpec spec,
                        workloads::PaperWorkloadByName(workload));
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  SWIM_ASSIGN_OR_RETURN(trace::Trace base,
                        workloads::GenerateTrace(spec, options));
  std::vector<trace::JobRecord> redrawn = base.jobs();
  swim::Pcg32 rng(seed);
  for (trace::JobRecord& job : redrawn) {
    job.submit_time =
        std::floor(job.submit_time / 3600.0) * 3600.0 + rng.NextDouble(0.0, 3600.0);
  }
  trace::Trace result(base.metadata());
  result.SetJobs(std::move(redrawn));
  return result;
}

// --- The pipeline -----------------------------------------------------------

/// Outcome of one end-to-end operation: the time of its library calls, and
/// the checked result. Checks and digests run outside the timed region.
struct OpOutcome {
  Timing timing;
  Status status;
  uint64_t digest = 0;
};

/// The user pipeline over one workload's inputs. `spans` is non-null while
/// a traced round runs; each library call then becomes a child span.
class Pipeline {
 public:
  Pipeline(const WorkloadConfig& config, uint64_t seed, int lanes,
           std::string csv_path, std::string stf1_path)
      : config_(config),
        seed_(seed),
        lanes_(lanes),
        csv_path_(std::move(csv_path)),
        stf1_path_(std::move(stf1_path)) {}

  Status SetUp(Inputs* in) const;
  void Bind(const Inputs* in);

  SpanRecorder* spans = nullptr;

  OpOutcome ReportBatch(const std::string& path, const char* label);
  OpOutcome ReportCsv() { return ReportBatch(csv_path_, "report_csv"); }
  OpOutcome ReportStf1() { return ReportBatch(stf1_path_, "report_stf1"); }
  OpOutcome ReportStream();
  OpOutcome Synth();
  OpOutcome Replay(const char* policy);
  OpOutcome Sweep();

  /// Once-per-run checks outside any timed region.
  Status CheckSynthFidelity();
  Status CheckSweepAtOneLane() const;

  sim::ReplayOptions ReplayOptionsFor(const char* policy) const;
  const sim::ReplayOptions& sweep_base() const { return sweep_base_; }
  const std::vector<sim::SweepConfig>& grid() const { return grid_; }
  const std::string& csv_path() const { return csv_path_; }
  const std::string& stf1_path() const { return stf1_path_; }
  const Inputs& inputs() const { return *in_; }
  int lanes() const { return lanes_; }

 private:
  const WorkloadConfig& config_;
  uint64_t seed_;
  int lanes_;
  std::string csv_path_;
  std::string stf1_path_;
  const Inputs* in_ = nullptr;

  std::string batch_report_;  // the latest batch report, for cross-checks
  bool synth_checked_ = false;
  trace::Trace first_synth_;  // kept until the fidelity check
  sim::ReplayOptions sweep_base_;
  std::vector<sim::SweepConfig> grid_;
  std::vector<uint64_t> sweep_digests_;  // per cell, from the latest sweep
};

Status Pipeline::SetUp(Inputs* in) const {
  SWIM_ASSIGN_OR_RETURN(in->source,
                        Generate("FB-2010", seed_, config_.analysis_jobs));
  SWIM_RETURN_IF_ERROR(WriteFile(csv_path_, trace::TraceToCsv(in->source)));
  SWIM_RETURN_IF_ERROR(
      WriteFile(stf1_path_, trace::TraceToColumnarBytes(in->source)));
  if (config_.replay_jobs > 0) {
    SWIM_ASSIGN_OR_RETURN(in->replay,
                          Generate("FB-2010", seed_, config_.replay_jobs));
  }
  SWIM_ASSIGN_OR_RETURN(in->ccb, Generate("CC-b", seed_, 0));
  return Status();
}

void Pipeline::Bind(const Inputs* in) {
  in_ = in;
  sweep_base_ = sim::ReplayOptions();
  sweep_base_.failures.task_failure_probability = 0.01;
  sweep_base_.failures.node_loss_per_hour = 0.1;
  sweep_base_.straggler_probability = 0.05;
  std::vector<uint64_t> seeds;
  for (uint64_t i = 1; i <= kSweepSeeds; ++i) seeds.push_back(seed_ * 16 + i);
  grid_ = sim::SweepGrid(in->ccb, sweep_base_,
                         std::vector<std::string>(std::begin(kPolicies),
                                                  std::end(kPolicies)),
                         std::vector<int>(std::begin(kSweepNodes),
                                          std::end(kSweepNodes)),
                         seeds);
}

sim::ReplayOptions Pipeline::ReplayOptionsFor(const char* policy) const {
  sim::ReplayOptions options;
  options.cluster.nodes = config_.replay_nodes;
  options.scheduler = policy;
  return options;
}

OpOutcome Pipeline::ReportBatch(const std::string& path, const char* label) {
  OpOutcome out;
  StatusOr<trace::Trace> loaded = swim::InvalidArgumentError("not loaded");
  StatusOr<core::WorkloadReport> report =
      swim::InvalidArgumentError("not analyzed");
  std::string text;
  {
    Stopwatch watch;
    ScopedSpan op(spans, label);
    trace::ParseOptions parse;
    parse.threads = lanes_;
    parse.warm_indexes = true;
    trace::ColumnarOptions columnar;
    columnar.threads = lanes_;
    {
      ScopedSpan span(spans, "trace.ReadTraceAuto");
      loaded = trace::ReadTraceAuto(path, parse, nullptr, columnar);
    }
    if (loaded.ok()) {
      core::AnalysisOptions analysis;
      analysis.threads = lanes_;
      ScopedSpan span(spans, "analysis.AnalyzeWorkload");
      report = core::AnalyzeWorkload(*loaded, analysis);
    }
    if (report.ok()) {
      ScopedSpan span(spans, "analysis.FormatReport");
      text = core::FormatReport(*report);
    }
    out.timing = watch.Elapsed();
  }
  if (!loaded.ok()) {
    out.status = loaded.status();
  } else if (!report.ok()) {
    out.status = report.status();
  } else if (loaded->size() != inputs().source.size()) {
    out.status = swim::InternalError("loaded job count differs from source");
  } else if (label == std::string_view("report_stf1") &&
             text != batch_report_) {
    out.status =
        swim::InternalError("CSV and STF1 batch reports are not identical");
  }
  batch_report_ = std::move(text);
  out.digest = TextDigest(batch_report_);
  return out;
}

/// The lines the streaming report computes exactly; each must equal the
/// batch report's line with the same prefix (or be absent from both).
constexpr const char* kExactLinePrefixes[] = {
    "jobs=",       "input file popularity:", "re-access:",
    "burstiness peak:median", "correlations:", "top job-name words",
    "framework share of jobs:", "(no job names"};

std::string LineWithPrefix(const std::string& text, std::string_view prefix) {
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + begin, end - begin);
    if (line.substr(0, prefix.size()) == prefix) return std::string(line);
    begin = end + 1;
  }
  return std::string();
}

OpOutcome Pipeline::ReportStream() {
  OpOutcome out;
  StatusOr<trace::ColumnarTraceView> view =
      swim::InvalidArgumentError("not opened");
  StatusOr<core::StreamingReport> report =
      swim::InvalidArgumentError("not analyzed");
  std::string text;
  {
    Stopwatch watch;
    ScopedSpan op(spans, "report_stream");
    trace::ColumnarOptions columnar;
    columnar.threads = lanes_;
    {
      ScopedSpan span(spans, "trace.ColumnarTraceView::Open");
      view = trace::ColumnarTraceView::Open(stf1_path_, columnar);
    }
    core::StreamingOptions options;
    options.threads = lanes_;
    core::StreamingAnalyzer analyzer(options);
    if (view.ok()) {
      Status observed;
      {
        ScopedSpan span(spans, "streaming.ObserveColumns");
        observed = analyzer.ObserveColumns(*view, 0, view->job_count());
      }
      if (observed.ok()) {
        ScopedSpan span(spans, "streaming.Report");
        report = analyzer.Report(&*view);
      } else {
        report = observed;
      }
    }
    if (report.ok()) {
      ScopedSpan span(spans, "streaming.FormatStreamingReport");
      text = core::FormatStreamingReport(*report);
    }
    out.timing = watch.Elapsed();
  }
  if (!view.ok()) {
    out.status = view.status();
  } else if (!report.ok()) {
    out.status = report.status();
  } else {
    size_t matched = 0;
    for (const char* prefix : kExactLinePrefixes) {
      const std::string stream_line = LineWithPrefix(text, prefix);
      if (stream_line != LineWithPrefix(batch_report_, prefix)) {
        out.status = swim::InternalError(
            std::string("streaming line differs from batch: ") + prefix);
        break;
      }
      if (!stream_line.empty()) ++matched;
    }
    if (out.status.ok() && matched < 5) {
      out.status = swim::InternalError("too few exact streaming lines found");
    }
  }
  out.digest = TextDigest(text);
  return out;
}

OpOutcome Pipeline::Synth() {
  OpOutcome out;
  StatusOr<core::WorkloadModel> model =
      swim::InvalidArgumentError("not fitted");
  StatusOr<trace::Trace> synth = swim::InvalidArgumentError("not generated");
  {
    Stopwatch watch;
    ScopedSpan op(spans, "synth");
    {
      ScopedSpan span(spans, "synth.BuildModel");
      model = core::BuildModel(inputs().source);
    }
    if (model.ok()) {
      core::SynthesisOptions options;
      options.job_count = inputs().source.size();
      ScopedSpan span(spans, "synth.SynthesizeTrace");
      synth = core::SynthesizeTrace(*model, options);
    }
    out.timing = watch.Elapsed();
  }
  if (!model.ok()) {
    out.status = model.status();
  } else if (!synth.ok()) {
    out.status = synth.status();
  } else if (synth->size() != inputs().source.size()) {
    out.status = swim::InternalError("synthetic trace has the wrong job count");
  } else {
    out.digest = TraceDigest(*synth);
    if (!synth_checked_ && first_synth_.empty()) {
      first_synth_ = *std::move(synth);
    }
  }
  return out;
}

Status Pipeline::CheckSynthFidelity() {
  synth_checked_ = true;
  const trace::Trace synth = std::move(first_synth_);
  first_synth_ = trace::Trace();
  if (synth.size() != inputs().source.size()) {
    return swim::InternalError("no synthetic trace with the requested count");
  }
  const core::FidelityReport fidelity =
      core::CompareTraces(inputs().source, synth);
  std::printf("check synth: %zu jobs, max KS %.4f (limit 0.1)\n",
              synth.size(), fidelity.max_ks);
  if (!(fidelity.max_ks < 0.1)) {
    return swim::InternalError("synthetic trace max KS >= 0.1");
  }
  return Status();
}

Status CheckReplay(const sim::ReplayResult& result, size_t jobs) {
  if (result.outcomes.size() + result.unfinished_jobs != jobs) {
    return swim::InternalError("outcomes + unfinished != jobs");
  }
  if (!(result.utilization >= 0.0 && result.utilization <= 1.0)) {
    return swim::InternalError("utilization outside [0, 1]");
  }
  return Status();
}

OpOutcome Pipeline::Replay(const char* policy) {
  OpOutcome out;
  const sim::ReplayOptions options = ReplayOptionsFor(policy);
  StatusOr<sim::ReplayResult> result = swim::InvalidArgumentError("not run");
  {
    Stopwatch watch;
    ScopedSpan op(spans, std::string("replay_") + policy);
    {
      ScopedSpan span(spans, "sim.ReplayTrace");
      result = sim::ReplayTrace(inputs().replay_trace(), options);
    }
    out.timing = watch.Elapsed();
  }
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.status = CheckReplay(*result, inputs().replay_trace().size());
  out.digest = ReplayDigest(*result);
  return out;
}

/// Per-cell digests of a sweep; a failed cell fails the whole grid.
Status SweepDigests(const std::vector<StatusOr<sim::ReplayResult>>& results,
                    const std::vector<sim::SweepConfig>& grid,
                    std::vector<uint64_t>* digests) {
  digests->clear();
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return results[i].status();
    SWIM_RETURN_IF_ERROR(CheckReplay(*results[i], grid[i].trace->size()));
    digests->push_back(ReplayDigest(*results[i]));
  }
  return Status();
}

OpOutcome Pipeline::Sweep() {
  OpOutcome out;
  std::vector<StatusOr<sim::ReplayResult>> results;
  {
    Stopwatch watch;
    ScopedSpan op(spans, "sweep");
    sim::SweepOptions options;
    options.max_parallelism = lanes_;
    {
      ScopedSpan span(spans, "sim.RunSweep");
      results = sim::RunSweep(grid_, options);
    }
    out.timing = watch.Elapsed();
  }
  out.status = SweepDigests(results, grid_, &sweep_digests_);
  Digest digest;
  for (uint64_t cell : sweep_digests_) digest.Add(cell);
  out.digest = digest.value();
  return out;
}

/// Replays every fifth cell of the grid (at least one per policy and size)
/// at one lane and compares each with the latest L-lane sweep.
Status Pipeline::CheckSweepAtOneLane() const {
  std::vector<sim::SweepConfig> cells;
  std::vector<size_t> index;
  for (size_t i = 0; i < grid_.size(); i += 5) {
    cells.push_back(grid_[i]);
    index.push_back(i);
  }
  std::vector<uint64_t> serial;
  SWIM_RETURN_IF_ERROR(SweepDigests(sim::RunSweep(cells, 1), cells, &serial));
  if (sweep_digests_.size() != grid_.size()) {
    return swim::InternalError("no complete L-lane sweep to compare with");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (serial[i] != sweep_digests_[index[i]]) {
      return swim::InternalError("sweep cell " + cells[i].label +
                                 " differs between 1 lane and L lanes");
    }
  }
  std::printf("check sweep: %zu cells identical at 1 and %d lanes\n",
              cells.size(), lanes_);
  return Status();
}

// --- Closed loop -------------------------------------------------------------

struct Op {
  std::string name;  // operation name; the metric is name + "_s"
  std::function<OpOutcome()> run;
  std::vector<Timing> samples;  // recorded, successful runs
  std::vector<size_t> kernels;  // calibration sample before each sample
  size_t recorded_runs = 0;     // recorded runs, failed ones included
  double last_wall_s = 0.0;
  uint64_t digest = 0;
  bool have_digest = false;
};

std::vector<Op> MakeOps(Pipeline* p) {
  std::vector<Op> ops;
  auto add = [&ops](std::string name, std::function<OpOutcome()> run) {
    Op op;
    op.name = std::move(name);
    op.run = std::move(run);
    ops.push_back(std::move(op));
  };
  for (const char* policy : kPolicies) {
    std::string name = std::string("replay_") + policy;
    std::replace(name.begin(), name.end(), '-', '_');
    add(name, [p, policy] { return p->Replay(policy); });
  }
  add("sweep", [p] { return p->Sweep(); });
  // The streaming report is checked against the latest batch report.
  add("report_csv", [p] { return p->ReportCsv(); });
  add("report_stf1", [p] { return p->ReportStf1(); });
  add("report_stream", [p] { return p->ReportStream(); });
  add("synth", [p] { return p->Synth(); });
  return ops;
}

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Count(const std::string& what, const Status& status) {
    ++attempted;
    if (!status.ok()) {
      ++failed;
      std::printf("FAILED %s: %s\n", what.c_str(), status.ToString().c_str());
    }
  }
};

/// Runs `op` once. A digest that differs from the operation's first one is
/// a failure: results must be identical across repeats.
void RunOnce(Op& op, bool record, Calibration* calibration, Tally* tally) {
  const double kernel_s = calibration->Sample();
  OpOutcome outcome = op.run();
  if (outcome.status.ok()) {
    if (!op.have_digest) {
      op.digest = outcome.digest;
      op.have_digest = true;
    } else if (op.digest != outcome.digest) {
      outcome.status = swim::InternalError("result digest changed");
    }
  }
  tally->Count(op.name, outcome.status);
  op.last_wall_s = outcome.timing.wall_s;
  if (record) {
    ++op.recorded_runs;
    if (outcome.status.ok()) {
      op.samples.push_back(outcome.timing);
      op.kernels.push_back(calibration->latest());
    }
  }
  std::printf("op %-16s %s %.6f s (kernel %.6f s)%s\n", op.name.c_str(),
              outcome.status.ok() ? "ok" : "FAILED", outcome.timing.wall_s,
              kernel_s, record ? "" : " warm-up");
  std::fflush(stdout);
}

/// Every operation once, in order.
void RunRound(std::vector<Op>& ops, bool record, Calibration* calibration,
              Tally* tally) {
  for (Op& op : ops) RunOnce(op, record, calibration, tally);
}

/// Spends what is left of the time budget: repeatedly runs the operation
/// with the fewest recorded runs among those whose latest time still fits,
/// so the slowest operations get as many samples as the time allows.
void FillBudget(std::vector<Op>& ops, const std::function<double()>& left,
                Calibration* calibration, Tally* tally) {
  while (true) {
    Op* next = nullptr;
    for (Op& op : ops) {
      if (op.last_wall_s > left()) continue;
      if (next == nullptr || op.recorded_runs < next->recorded_runs) {
        next = &op;
      }
    }
    if (next == nullptr) return;
    RunOnce(*next, /*record=*/true, calibration, tally);
  }
}

/// Metric name -> (samples, unit); reported as the median of the samples.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    auto& entry = values_[name];
    entry.first.push_back(value);
    entry.second = unit;
  }
  void Print() const {
    for (const auto& [name, entry] : values_) {
      const auto [low, high] =
          std::minmax_element(entry.first.begin(), entry.first.end());
      std::printf("  %-32s %14.6f %-8s (n=%zu, min %.6f, max %.6f)\n",
                  name.c_str(), Median(entry.first), entry.second.c_str(),
                  entry.first.size(), *low, *high);
    }
  }
  std::string Json() const {
    std::string json = "{";
    char buffer[128];
    for (const auto& [name, entry] : values_) {
      if (json.size() > 1) json += ", ";
      std::snprintf(buffer, sizeof(buffer), "%.17g", Median(entry.first));
      json += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
              entry.second + "\"}";
    }
    return json + "}";
  }

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> values_;
};

// --- Traced run: one call per layer ----------------------------------------

template <typename F>
double TimeSpan(SpanRecorder* spans, const char* name, F&& body) {
  ScopedSpan span(spans, name);
  body();
  return span.Stop();
}

/// Times the public calls of each layer separately, on warm inputs.
void LayerPass(Pipeline& p, SpanRecorder* spans, Metrics* m, Tally* tally) {
  const Inputs& in = p.inputs();
  const int lanes = p.lanes();
  const bool parallel = lanes >= 2;
  ScopedSpan pass(spans, "layers");

  // trace: encoders (set-up work), CSV parse + id index, STF1 open ladder.
  m->Add("trace.csv_encode_s", TimeSpan(spans, "trace.TraceToCsv", [&] {
           std::string csv = trace::TraceToCsv(in.source);
         }), "s");
  m->Add("trace.stf1_encode_s",
         TimeSpan(spans, "trace.TraceToColumnarBytes", [&] {
           std::string bytes = trace::TraceToColumnarBytes(in.source);
         }), "s");
  auto parse_at = [&](int threads, StatusOr<trace::Trace>* out) {
    trace::ParseOptions parse;
    parse.threads = threads;
    parse.warm_indexes = false;
    return TimeSpan(spans, "trace.ReadTraceCsv", [&] {
      *out = trace::ReadTraceCsv(p.csv_path(), parse);
    });
  };
  {
    StatusOr<trace::Trace> parsed = swim::InvalidArgumentError("");
    const double parse_l = parse_at(lanes, &parsed);
    tally->Count("trace.ReadTraceCsv", parsed.status());
    m->Add("trace.csv_parse_s", parse_l, "s");
    if (parsed.ok()) {
      m->Add("trace.index_build_s",
             TimeSpan(spans, "trace.Trace::WarmIndexes",
                      [&] { parsed->WarmIndexes(lanes); }),
             "s");
    }
    if (parallel) {
      parsed = swim::InvalidArgumentError("");
      const double parse_1 = parse_at(1, &parsed);
      tally->Count("trace.ReadTraceCsv(1 lane)", parsed.status());
      m->Add("parallel.speedup.csv_parse", parse_1 / parse_l, "x");
    }
  }
  StatusOr<trace::ColumnarTraceView> view = swim::InvalidArgumentError("");
  m->Add("trace.stf1_open_s",
         TimeSpan(spans, "trace.ColumnarTraceView::Open", [&] {
           trace::ColumnarOptions options;
           options.threads = lanes;
           view = trace::ColumnarTraceView::Open(p.stf1_path(), options);
         }), "s");
  tally->Count("trace.ColumnarTraceView::Open", view.status());
  if (!view.ok()) return;
  Status verified;
  m->Add("trace.stf1_verify_s",
         TimeSpan(spans, "trace.VerifyChecksums",
                  [&] { verified = view->VerifyChecksums(); }),
         "s");
  tally->Count("trace.VerifyChecksums", verified);
  StatusOr<trace::Trace> warm = swim::InvalidArgumentError("");
  if (parallel) {
    const double materialize_1 =
        TimeSpan(spans, "trace.Materialize", [&] { warm = view->Materialize(1); });
    tally->Count("trace.Materialize(1 lane)", warm.status());
    warm = swim::InvalidArgumentError("");
    const double materialize_l = TimeSpan(
        spans, "trace.Materialize", [&] { warm = view->Materialize(lanes); });
    m->Add("trace.stf1_materialize_s", materialize_l, "s");
    m->Add("parallel.speedup.materialize", materialize_1 / materialize_l, "x");
  } else {
    m->Add("trace.stf1_materialize_s",
           TimeSpan(spans, "trace.Materialize",
                    [&] { warm = view->Materialize(lanes); }),
           "s");
  }
  tally->Count("trace.Materialize", warm.status());
  if (!warm.ok()) return;
  const trace::Trace& t = *warm;
  t.WarmIndexes(lanes);

  // core/analysis: each stage alone, serially, on the warm trace.
  double stages = 0.0;
  auto stage = [&](const char* metric, const char* span, auto&& body) {
    const double seconds = TimeSpan(spans, span, body);
    stages += seconds;
    m->Add(metric, seconds, "s");
  };
  stage("analysis.summary_s", "analysis.Summarize",
        [&] { trace::Summarize(t); });
  stage("analysis.data_sizes_s", "analysis.ComputeDataSizeCdfs",
        [&] { core::ComputeDataSizeCdfs(t); });
  stage("analysis.input_popularity_s", "analysis.ComputeInputPopularity",
        [&] { core::ComputeInputPopularity(t); });
  stage("analysis.output_popularity_s", "analysis.ComputeOutputPopularity",
        [&] { core::ComputeOutputPopularity(t); });
  stage("analysis.reaccess_intervals_s", "analysis.ComputeReaccessIntervals",
        [&] { core::ComputeReaccessIntervals(t); });
  stage("analysis.reaccess_fractions_s", "analysis.ComputeReaccessFractions",
        [&] { core::ComputeReaccessFractions(t); });
  stage("analysis.burstiness_s", "analysis.ComputeBurstiness",
        [&] { core::ComputeBurstiness(t); });
  stage("analysis.correlations_s", "analysis.ComputeSeriesCorrelations",
        [&] { core::ComputeSeriesCorrelations(t); });
  stage("analysis.diurnal_s", "analysis.DiurnalStrength",
        [&] { core::DiurnalStrength(t); });
  stage("analysis.names_s", "analysis.AnalyzeJobNames",
        [&] { core::AnalyzeJobNames(t); });
  auto classify_at = [&](int threads) {
    core::ClassificationOptions options;
    options.threads = threads;
    Status status;
    const double seconds = TimeSpan(spans, "analysis.ClassifyJobs", [&] {
      status = core::ClassifyJobs(t, options).status();
    });
    tally->Count("analysis.ClassifyJobs", status);
    return seconds;
  };
  const double classify_l = classify_at(lanes);
  stages += classify_l;
  m->Add("analysis.classify_s", classify_l, "s");
  if (parallel) {
    m->Add("parallel.speedup.classify", classify_at(1) / classify_l, "x");
  }
  StatusOr<core::WorkloadReport> report = swim::InvalidArgumentError("");
  auto analyze_at = [&](int threads) {
    core::AnalysisOptions options;
    options.threads = threads;
    const double seconds = TimeSpan(spans, "analysis.AnalyzeWorkload", [&] {
      report = core::AnalyzeWorkload(t, options);
    });
    tally->Count("analysis.AnalyzeWorkload", report.status());
    return seconds;
  };
  const double analyze_l = analyze_at(lanes);
  m->Add("analysis.workload_s", analyze_l, "s");
  m->Add("analysis.stage_overlap", stages / analyze_l, "ratio");
  if (parallel) {
    m->Add("parallel.speedup.analyze", analyze_at(1) / analyze_l, "x");
  }
  if (report.ok()) {
    m->Add("analysis.format_s",
           TimeSpan(spans, "analysis.FormatReport",
                    [&] { core::FormatReport(*report); }),
           "s");
  }
  warm = swim::InvalidArgumentError("");

  // Streaming analysis over the open STF1 view.
  {
    core::StreamingOptions options;
    options.threads = lanes;
    core::StreamingAnalyzer analyzer(options);
    Status observed;
    m->Add("streaming.observe_s",
           TimeSpan(spans, "streaming.ObserveColumns", [&] {
             observed = analyzer.ObserveColumns(*view, 0, view->job_count());
           }), "s");
    tally->Count("streaming.ObserveColumns", observed);
    Status reported;
    m->Add("streaming.report_s", TimeSpan(spans, "streaming.Report", [&] {
             reported = analyzer.Report(&*view).status();
           }), "s");
    tally->Count("streaming.Report", reported);
  }

  // core/synth.
  {
    StatusOr<core::WorkloadModel> model = swim::InvalidArgumentError("");
    m->Add("synth.fit_s", TimeSpan(spans, "synth.BuildModel", [&] {
             model = core::BuildModel(in.source);
           }), "s");
    tally->Count("synth.BuildModel", model.status());
    if (model.ok()) {
      Status generated;
      core::SynthesisOptions options;
      options.job_count = in.source.size();
      m->Add("synth.generate_s", TimeSpan(spans, "synth.SynthesizeTrace", [&] {
               generated = core::SynthesizeTrace(*model, options).status();
             }), "s");
      tally->Count("synth.SynthesizeTrace", generated);
    }
  }

  // sim: one template, replayed under each policy.
  {
    StatusOr<sim::ReplayTemplate> tmpl = swim::InvalidArgumentError("");
    m->Add("sim.build_s", TimeSpan(spans, "sim.ReplayTemplate::Build", [&] {
             tmpl = sim::ReplayTemplate::Build(in.replay_trace(),
                                               p.ReplayOptionsFor("fifo"));
           }), "s");
    tally->Count("sim.ReplayTemplate::Build", tmpl.status());
    if (tmpl.ok()) {
      for (const char* policy : kPolicies) {
        StatusOr<sim::ReplayResult> result = swim::InvalidArgumentError("");
        const double seconds =
            TimeSpan(spans, "sim.ReplayTemplate::Replay",
                     [&] { result = tmpl->Replay(p.ReplayOptionsFor(policy)); });
        tally->Count("sim.ReplayTemplate::Replay", result.status());
        if (!result.ok()) continue;
        tally->Count("sim.ReplayTemplate::Replay check",
                     CheckReplay(*result, in.replay_trace().size()));
        m->Add(std::string("sim.replay_s.") + policy, seconds, "s");
        m->Add(std::string("sim.utilization.") + policy, result->utilization,
               "ratio");
        m->Add(std::string("sim.unfinished.") + policy,
               static_cast<double>(result->unfinished_jobs), "count");
      }
    }
  }

  // sim/sweep: each cell serially through one template and a reused arena,
  // then the grid through RunSweep at 1 lane and at L lanes.
  {
    const auto& grid = p.grid();
    StatusOr<sim::ReplayTemplate> tmpl =
        sim::ReplayTemplate::Build(in.ccb, p.sweep_base());
    tally->Count("sweep template", tmpl.status());
    if (tmpl.ok()) {
      swim::Arena arena;
      std::vector<double> cell_ms;
      std::vector<uint64_t> cell_digests;
      ScopedSpan cells(spans, "sweep.cells");
      for (const sim::SweepConfig& cell : grid) {
        StatusOr<sim::ReplayResult> result = swim::InvalidArgumentError("");
        ScopedSpan span(spans, "sim.ReplayTemplate::Replay");
        result = tmpl->Replay(cell.options, &arena);
        cell_ms.push_back(1e3 * span.Stop());
        tally->Count("sweep cell", result.status());
        cell_digests.push_back(result.ok() ? ReplayDigest(*result) : 0);
        arena.Reset();
      }
      cells.Stop();
      m->Add("sweep.cell_p50_ms", Median(cell_ms), "ms");
      m->Add("sweep.cell_p90_ms", Percentile(cell_ms, 0.9), "ms");

      std::vector<StatusOr<sim::ReplayResult>> serial, lanes_results;
      const double serial_s = TimeSpan(spans, "sim.RunSweep",
                                       [&] { serial = sim::RunSweep(grid, 1); });
      const double lanes_s = TimeSpan(
          spans, "sim.RunSweep", [&] { lanes_results = sim::RunSweep(grid, lanes); });
      m->Add("sweep.serial_s", serial_s, "s");
      if (parallel) m->Add("sweep.lane_speedup", serial_s / lanes_s, "x");
      std::vector<uint64_t> serial_digests, lane_digests;
      Status status = SweepDigests(serial, grid, &serial_digests);
      if (status.ok()) status = SweepDigests(lanes_results, grid, &lane_digests);
      if (status.ok() && (serial_digests != lane_digests ||
                          serial_digests != cell_digests)) {
        status = swim::InternalError(
            "sweep differs between 1 lane, L lanes and per-cell replay");
      }
      tally->Count("sweep grid at 1 and L lanes", status);
      double retries = 0.0;
      for (const auto& result : lanes_results) {
        if (result.ok()) retries += static_cast<double>(result->failures.retries);
      }
      m->Add("sweep.retries", retries, "count");
    }
  }
}

// --- Main ----------------------------------------------------------------

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (name == config.name) return &config;
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: swimbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\nworkloads:");
  for (const WorkloadConfig& config : kWorkloads) {
    std::fprintf(stderr, " %s", config.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) return Usage();

  const int nproc = CpuCount();
  const int lanes = std::min(nproc, kMaxLanes);
  // Internals that read the default lane count see L too.
  setenv("SWIM_THREADS", std::to_string(lanes).c_str(), 1);
  std::printf("host: nproc=%d lanes=%d build=%s workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              nproc, lanes, SWIMBENCH_BUILD_TYPE, config->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  const std::string stem = args.work_dir + "/" + config->name + "-" +
                           std::to_string(args.seed);
  Pipeline pipeline(*config, args.seed, lanes, stem + ".csv", stem + ".stf1");
  Tally tally;
  Metrics metrics;
  Calibration calibration;

  // Set-up: generate and write the inputs (repeated for a steady median).
  Inputs inputs;
  std::vector<std::pair<double, size_t>> setup_seconds;  // with kernel index
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    Inputs fresh;
    calibration.Sample();
    Stopwatch watch;
    Status status = pipeline.SetUp(&fresh);
    const double seconds = watch.Elapsed().wall_s;
    tally.Count("setup", status);
    if (!status.ok()) {
      std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
                  "\"metrics\": {}}\n",
                  tally.attempted, tally.failed);
      return 0;
    }
    setup_seconds.emplace_back(seconds, calibration.latest());
    inputs = std::move(fresh);
  }
  pipeline.Bind(&inputs);
  std::printf("inputs: analysis %zu jobs, replay %zu jobs on %d nodes, "
              "sweep %zu cells over %zu CC-b jobs\n",
              inputs.source.size(), inputs.replay_trace().size(),
              config->replay_nodes, pipeline.grid().size(), inputs.ccb.size());

  std::vector<Op> ops = MakeOps(&pipeline);
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  bool correct = true;

  if (!args.trace) {
    // A warm-up round and one recorded round, then the rest of the time
    // budget; every operation gets at least one recorded run.
    RunRound(ops, /*record=*/false, &calibration, &tally);
    tally.Count("synth fidelity", pipeline.CheckSynthFidelity());
    RunRound(ops, /*record=*/true, &calibration, &tally);
    FillBudget(ops, [&] { return args.seconds - elapsed(); }, &calibration,
               &tally);
    tally.Count("sweep at 1 lane", pipeline.CheckSweepAtOneLane());

    calibration.Sample();  // the "after" kernel of the last operation
    std::printf("calibration: median kernel %.6f s over %zu samples; times "
                "are scaled to the %.3f s reference\n",
                calibration.median_s(), calibration.samples(),
                Calibration::kReferenceSeconds);
    for (const auto& [seconds, kernel] : setup_seconds) {
      metrics.Add("setup_s", calibration.Scale(seconds, kernel), "s");
    }
    for (const Op& op : ops) {
      for (size_t i = 0; i < op.samples.size(); ++i) {
        const double seconds =
            calibration.Scale(op.samples[i].wall_s, op.kernels[i]);
        if (op.name == "sweep") {
          metrics.Add("sweep_cells_per_s",
                      static_cast<double>(pipeline.grid().size()) / seconds,
                      "cells/s");
        } else {
          metrics.Add(op.name + "_s", seconds, "s");
        }
      }
    }
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Traced run: one untraced and one traced round of the end-to-end
    // operations after a warm-up (their difference is the tracing
    // overhead), then the per-layer pass, repeated while time allows.
    SpanRecorder recorder(std::string(config->name) + "-" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(std::chrono::system_clock::now()
                                             .time_since_epoch()
                                             .count()));
    RunRound(ops, /*record=*/false, &calibration, &tally);
    tally.Count("synth fidelity", pipeline.CheckSynthFidelity());
    RunRound(ops, /*record=*/true, &calibration, &tally);
    pipeline.spans = &recorder;
    RunRound(ops, /*record=*/true, &calibration, &tally);
    pipeline.spans = nullptr;
    // The overhead is the median over operations of traced / untraced - 1,
    // both at the reference speed, so neither one noisy operation nor the
    // host's speed drifting between the two rounds sets it.
    calibration.Sample();  // the "after" kernel of the last operation
    std::vector<double> overheads;
    std::printf("tracing overhead per end-to-end operation:\n");
    for (const Op& op : ops) {
      if (op.samples.size() != 2) continue;
      const Timing& off = op.samples[0];
      const Timing& on = op.samples[1];
      overheads.push_back(calibration.Scale(on.wall_s, op.kernels[1]) /
                              calibration.Scale(off.wall_s, op.kernels[0]) -
                          1.0);
      std::printf("  %-16s untraced %10.4f s  traced %10.4f s  cpu/wall %.2f\n",
                  op.name.c_str(), off.wall_s, on.wall_s,
                  off.cpu_s / off.wall_s);
      metrics.Add(op.name + ".cpu_per_wall", off.cpu_s / off.wall_s, "ratio");
    }
    if (!overheads.empty()) {
      metrics.Add("tracing.overhead_frac", Median(overheads), "ratio");
    }
    double last_pass = 0.0;
    do {
      const double pass_start = elapsed();
      LayerPass(pipeline, &recorder, &metrics, &tally);
      last_pass = elapsed() - pass_start;
    } while (elapsed() + last_pass <= args.seconds);
    if (lanes < 2) {
      correct = false;
      std::printf("parallel speedup rows skipped: lanes=%d (nproc=%d); a "
                  "1-lane run says nothing about parallel sites and does not "
                  "pass\n",
                  lanes, nproc);
    }
    metrics.Add("host.calibration_s", calibration.median_s(), "s");
    metrics.Add("failed_frac",
                static_cast<double>(tally.failed) /
                    static_cast<double>(std::max<size_t>(tally.attempted, 1)),
                "ratio");

    // Self time per span name, then the spans themselves to a file.
    const std::vector<double> self = recorder.SelfTimes();
    std::map<std::string, std::pair<double, double>> by_name;  // total, self
    for (size_t i = 0; i < recorder.spans().size(); ++i) {
      auto& entry = by_name[recorder.spans()[i].name];
      entry.first += recorder.spans()[i].duration_s();
      entry.second += self[i];
    }
    std::printf("spans (run %s): %zu\n  %-36s %12s %12s\n",
                recorder.run_id().c_str(), recorder.spans().size(), "name",
                "total_s", "self_s");
    for (const auto& [name, entry] : by_name) {
      std::printf("  %-36s %12.6f %12.6f\n", name.c_str(), entry.first,
                  entry.second);
    }
    const std::string spans_path = stem + ".spans.jsonl";
    if (recorder.WriteJsonLines(spans_path)) {
      std::printf("spans written to %s\n", spans_path.c_str());
    } else {
      tally.Count("write spans", swim::IoError("cannot write " + spans_path));
    }
  }

  std::printf("digests:");
  for (const Op& op : ops) {
    std::printf(" %s=%016llx", op.name.c_str(),
                static_cast<unsigned long long>(op.digest));
  }
  std::printf("\nmetrics (median):\n");
  metrics.Print();
  correct = correct && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              metrics.Json().c_str());
  return 0;
}
