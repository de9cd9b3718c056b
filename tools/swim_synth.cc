// swim_synth: the SWIM pipeline as a command-line tool.
//
//   swim_synth fit <trace> <model.swim>          fit + save a model
//   swim_synth gen <model.swim> <out> [jobs]     synthesize a trace
//   swim_synth check <trace> <synth>             fidelity report
//
// Trace inputs may be CSV or STF1 (sniffed from the magic bytes); gen
// writes STF1 when the output path ends in .stf/.stf1, CSV otherwise.
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "core/synth/fidelity.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: swim_synth fit <trace> <model.swim>\n"
               "       swim_synth gen <model.swim> <out> [jobs]\n"
               "       swim_synth check <trace> <synth>\n");
  return 2;
}

int Fail(const swim::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 4) return Usage();
  std::string command = argv[1];

  if (command == "fit") {
    auto trace = trace::ReadTraceAuto(argv[2]);
    if (!trace.ok()) return Fail(trace.status());
    auto model = core::BuildModel(*trace);
    if (!model.ok()) return Fail(model.status());
    Status saved = core::SaveModel(*model, argv[3]);
    if (!saved.ok()) return Fail(saved);
    std::printf("model: %zu exemplars from %zu jobs, span %.0f h, "
                "Zipf slope %.2f -> %s\n",
                model->exemplars.size(), model->total_jobs,
                model->span_seconds / 3600.0, model->file_model.zipf_slope,
                argv[3]);
    return 0;
  }
  if (command == "gen") {
    core::SynthesisOptions options;
    if (argc > 4) {
      int64_t jobs = 0;
      if (!ParseInt64(argv[4], &jobs) || jobs <= 0) {
        std::fprintf(stderr,
                     "swim_synth gen: [jobs] must be a positive integer, "
                     "got '%s'\n",
                     argv[4]);
        return Usage();
      }
      options.job_count = static_cast<size_t>(jobs);
    }
    auto model = core::LoadModel(argv[2]);
    if (!model.ok()) return Fail(model.status());
    auto synth = core::SynthesizeTrace(*model, options);
    if (!synth.ok()) return Fail(synth.status());
    Status written = trace::WriteTraceAuto(*synth, argv[3]);
    if (!written.ok()) return Fail(written);
    std::printf("synthesized %zu jobs -> %s\n", synth->size(), argv[3]);
    return 0;
  }
  if (command == "check") {
    auto source = trace::ReadTraceAuto(argv[2]);
    if (!source.ok()) return Fail(source.status());
    auto synth = trace::ReadTraceAuto(argv[3]);
    if (!synth.ok()) return Fail(synth.status());
    core::FidelityReport report = core::CompareTraces(*source, *synth);
    std::printf("%s", core::FormatFidelity(report).c_str());
    return report.max_ks < 0.1 ? 0 : 1;
  }
  return Usage();
}
