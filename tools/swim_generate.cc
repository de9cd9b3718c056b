// swim_generate: emit a calibrated paper workload as a trace file.
//
//   swim_generate <workload> <out> [jobs] [seed]
//
// Workload names are Table 1's: CC-a..CC-e, FB-2009, FB-2010
// (swim_analyze --list shows details). Output is STF1 when <out> ends in
// .stf/.stf1, CSV otherwise.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/spec_io.h"
#include "workloads/trace_generator.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: swim_generate <workload-or-spec-file> <out> "
               "[jobs] [seed]\n");
  return 2;
}

/// Parses the whole of `text` as a base-10 unsigned integer: no sign, no
/// whitespace, no suffix, and no wrap-around past 2^64 - 1.
bool ParseUnsigned(const char* text, uint64_t* value) {
  const char* end = text + std::strlen(text);
  const auto [ptr, error] = std::from_chars(text, end, *value);
  return error == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 3 || argc > 5) return Usage();
  workloads::GeneratorOptions options;
  if (argc > 3) {
    uint64_t jobs = 0;
    if (!ParseUnsigned(argv[3], &jobs) || jobs == 0) {
      std::fprintf(stderr,
                   "swim_generate: [jobs] must be a positive integer, "
                   "got '%s'\n",
                   argv[3]);
      return Usage();
    }
    options.job_count_override = static_cast<size_t>(jobs);
  }
  if (argc > 4 && !ParseUnsigned(argv[4], &options.seed)) {
    std::fprintf(stderr,
                 "swim_generate: [seed] must be an unsigned integer, "
                 "got '%s'\n",
                 argv[4]);
    return Usage();
  }
  // The first argument is either a built-in paper workload name or a path
  // to a .spec file (see workloads/spec_io.h for the format).
  auto spec = workloads::PaperWorkloadByName(argv[1]);
  if (!spec.ok()) {
    spec = workloads::LoadSpec(argv[1]);
  }
  if (!spec.ok()) {
    std::fprintf(stderr,
                 "'%s' is neither a built-in workload nor a loadable spec "
                 "file: %s\n",
                 argv[1], spec.status().ToString().c_str());
    return 1;
  }
  auto trace = workloads::GenerateTrace(*spec, options);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  Status written = trace::WriteTraceAuto(*trace, argv[2]);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu jobs shaped like %s to %s\n", trace->size(),
              argv[1], argv[2]);
  return 0;
}
