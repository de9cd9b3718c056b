// swim_convert: translate traces between CSV and STF1.
//
//   swim_convert <in> <out> [--to csv|stf1] [--on-error strict|skip|repair]
//                [--no-verify] [--stats]
//
// The input format is sniffed from the magic bytes; the output format
// defaults to the opposite direction when unambiguous — otherwise it
// follows <out>'s extension (.stf/.stf1 selects STF1) — and --to forces
// it. --on-error applies to CSV inputs only (STF1 is checksummed, not
// repaired); --no-verify skips STF1 checksum verification on input;
// --stats prints job/dictionary/byte counts for the conversion.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: swim_convert <in> <out> [--to csv|stf1]\n"
               "                    [--on-error strict|skip|repair] "
               "[--no-verify] [--stats]\n");
  return 2;
}

int Fail(const swim::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 3) return Usage();
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];

  trace::ParseOptions parse_options;
  parse_options.warm_indexes = true;  // STF1 output needs the id indexes
  trace::ColumnarOptions columnar_options;
  bool stats = false;
  bool forced_format = false;
  trace::TraceFormat out_format = trace::TraceFormat::kCsv;
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--no-verify") {
      columnar_options.verify_checksums = false;
      continue;
    }
    if (flag == "--stats") {
      stats = true;
      continue;
    }
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
        return 2;
      }
      value = argv[++i];
    }
    if (flag == "--to") {
      if (value == "csv") {
        out_format = trace::TraceFormat::kCsv;
      } else if (value == "stf1") {
        out_format = trace::TraceFormat::kStf1;
      } else {
        std::fprintf(stderr, "--to wants csv or stf1, got '%s'\n",
                     value.c_str());
        return 2;
      }
      forced_format = true;
    } else if (flag == "--on-error") {
      auto mode = trace::ParseModeFromName(value);
      if (!mode.ok()) return Fail(mode.status());
      parse_options.mode = *mode;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  auto in_format = trace::SniffTraceFormat(in_path);
  if (!in_format.ok()) return Fail(in_format.status());
  if (!forced_format) {
    // Converting is the common case: flip the direction unless the output
    // extension explicitly says otherwise.
    out_format = trace::HasColumnarExtension(out_path)
                     ? trace::TraceFormat::kStf1
                 : *in_format == trace::TraceFormat::kCsv
                     ? trace::TraceFormat::kStf1
                     : trace::TraceFormat::kCsv;
  }

  trace::ParseReport report;
  auto loaded =
      trace::ReadTraceAuto(in_path, parse_options, &report, columnar_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", in_path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  if (!report.clean()) {
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
  }

  Status written = out_format == trace::TraceFormat::kStf1
                       ? trace::WriteTraceColumnar(*loaded, out_path)
                       : trace::WriteTraceCsv(*loaded, out_path);
  if (!written.ok()) return Fail(written);

  std::printf("%s (%s) -> %s (%s): %zu jobs\n", in_path.c_str(),
              trace::TraceFormatName(*in_format), out_path.c_str(),
              trace::TraceFormatName(out_format), loaded->size());
  if (stats) {
    std::printf("  names: %zu distinct, paths: %zu distinct\n",
                loaded->names().size(),
                loaded->paths().size());
    const std::string stf1 = trace::TraceToColumnarBytes(*loaded);
    const std::string csv = trace::TraceToCsv(*loaded);
    std::printf("  csv: %zu bytes, stf1: %zu bytes (%.2fx)\n", csv.size(),
                stf1.size(),
                static_cast<double>(csv.size()) /
                    static_cast<double>(stf1.empty() ? 1 : stf1.size()));
  }
  return 0;
}
