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
#include <cstdio>
#include <string>
#include <string_view>

#include "common/flags.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

constexpr char kUsage[] =
    "usage: swim_convert <in> <out> [--to csv|stf1]\n"
    "                    [--on-error strict|skip|repair] "
    "[--no-verify] [--stats]\n";

int Fail(const swim::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string in_path;
  std::string out_path;
  trace::ParseOptions parse_options;
  trace::ColumnarOptions columnar_options;
  bool no_verify = false;
  bool stats = false;
  bool forced_format = false;
  trace::TraceFormat out_format = trace::TraceFormat::kCsv;
  flags::FlagSet cli;
  cli.Add("<in>", &in_path)
      .Add("<out>", &out_path)
      .Add("--to",
           [&](std::string_view value) {
             forced_format = true;
             out_format = value == "stf1" ? trace::TraceFormat::kStf1
                                          : trace::TraceFormat::kCsv;
             return value == "csv" || value == "stf1"
                        ? Status::Ok()
                        : InvalidArgumentError("wants csv or stf1, got '" +
                                               std::string(value) + "'");
           })
      .Add("--on-error", &parse_options.mode, trace::ParseModeFromName)
      .Add("--no-verify", &no_verify)
      .Add("--stats", &stats);
  Status parsed = cli.Parse(argc, argv);
  if (!parsed.ok()) return flags::UsageError(parsed, kUsage);
  columnar_options.verify_checksums = !no_verify;

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
