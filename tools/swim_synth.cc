// swim_synth: the SWIM pipeline as a command-line tool.
//
//   swim_synth fit <trace> <model.swim>          fit + save a model
//   swim_synth gen <model.swim> <out> [jobs]     synthesize a trace
//   swim_synth check <trace> <synth>             fidelity report
//
// Trace inputs may be CSV or STF1 (sniffed from the magic bytes); gen
// writes STF1 when the output path ends in .stf/.stf1, CSV otherwise.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/analysis/accumulators.h"
#include "core/synth/fidelity.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

constexpr char kUsage[] =
    "usage: swim_synth fit <trace> <model.swim>\n"
    "       swim_synth gen <model.swim> <out> [jobs]\n"
    "       swim_synth check <trace> <synth>\n";

int Fail(const swim::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  const std::string command = argc > 1 ? argv[1] : "";
  // The two paths each command takes, in the order of its usage line.
  std::string first;
  std::string second;
  core::SynthesisOptions options;
  flags::FlagSet cli;
  if (command == "fit") {
    cli.Add("<trace>", &first).Add("<model.swim>", &second);
  } else if (command == "gen") {
    cli.Add("<model.swim>", &first)
        .Add("<out>", &second)
        .Add("[jobs]", &options.job_count, 1);
  } else if (command == "check") {
    cli.Add("<trace>", &first).Add("<synth>", &second);
  } else {
    return flags::UsageError(
        InvalidArgumentError("<command> must be fit, gen or check"), kUsage);
  }
  Status parsed = cli.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return flags::UsageError(parsed, kUsage);

  if (command == "fit") {
    auto trace = trace::ReadTraceAuto(first);
    if (!trace.ok()) return Fail(trace.status());
    auto model = core::BuildModel(*trace);
    if (!model.ok()) return Fail(model.status());
    Status saved = core::SaveModel(*model, second);
    if (!saved.ok()) return Fail(saved);
    std::printf("model: %zu exemplars from %zu jobs, span %.0f h, "
                "Zipf slope %.2f -> %s\n",
                model->exemplars.size(), model->total_jobs,
                model->span_seconds / 3600.0, model->file_model.zipf_slope,
                second.c_str());
    return 0;
  }
  if (command == "gen") {
    auto model = core::LoadModel(first);
    if (!model.ok()) return Fail(model.status());
    auto synth = core::SynthesizeTrace(*model, options);
    if (!synth.ok()) return Fail(synth.status());
    Status written = trace::WriteTraceAuto(*synth, second);
    if (!written.ok()) return Fail(written);
    std::printf("synthesized %zu jobs -> %s\n", synth->size(),
                second.c_str());
    return 0;
  }
  auto source = trace::ReadTraceAuto(first);
  if (!source.ok()) return Fail(source.status());
  auto synth = trace::ReadTraceAuto(second);
  if (!synth.ok()) return Fail(synth.status());
  // CompareTraces sizes hourly series: past the horizon, gigabytes.
  for (const trace::Trace* t : {&*source, &*synth}) {
    const trace::JobColumns c = t->columns();
    Status horizon = c.size == 0 ? Status::Ok()
                     : core::CheckHorizon(c, 0, c.size, c.submit_time[0]);
    if (!horizon.ok()) return Fail(horizon);
  }
  core::FidelityReport report = core::CompareTraces(*source, *synth);
  std::printf("%s", core::FormatFidelity(report).c_str());
  return report.max_ks < 0.1 ? 0 : 1;
}
