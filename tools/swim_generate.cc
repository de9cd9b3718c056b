// swim_generate: emit a calibrated paper workload as a trace file.
//
//   swim_generate <workload> <out> [jobs] [seed]
//
// Workload names are Table 1's: CC-a..CC-e, FB-2009, FB-2010
// (swim_analyze --list shows details). Output is STF1 when <out> ends in
// .stf/.stf1, CSV otherwise.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/spec_io.h"
#include "workloads/trace_generator.h"

namespace {

constexpr char kUsage[] =
    "usage: swim_generate <workload-or-spec-file> <out> [jobs] [seed]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string workload;
  std::string out_path;
  workloads::GeneratorOptions options;
  flags::FlagSet cli;
  cli.Add("<workload-or-spec-file>", &workload)
      .Add("<out>", &out_path)
      .Add("[jobs]", &options.job_count_override, 1)
      .Add("[seed]", &options.seed);
  Status parsed = cli.Parse(argc, argv);
  if (!parsed.ok()) return flags::UsageError(parsed, kUsage);
  // The first argument is either a built-in paper workload name or a path
  // to a .spec file (see workloads/spec_io.h for the format).
  auto spec = workloads::PaperWorkloadByName(workload);
  if (!spec.ok()) {
    spec = workloads::LoadSpec(workload);
  }
  if (!spec.ok()) {
    std::fprintf(stderr,
                 "'%s' is neither a built-in workload nor a loadable spec "
                 "file: %s\n",
                 workload.c_str(), spec.status().ToString().c_str());
    return 1;
  }
  auto trace = workloads::GenerateTrace(*spec, options);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  Status written = trace::WriteTraceAuto(*trace, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu jobs shaped like %s to %s\n", trace->size(),
              workload.c_str(), out_path.c_str());
  return 0;
}
