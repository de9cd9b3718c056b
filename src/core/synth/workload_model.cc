#include "core/synth/workload_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "stats/sampling.h"
#include "trace/trace_io.h"

namespace swim::core {
namespace {

workloads::TraceColumnAvailability InferColumns(const trace::Trace& trace) {
  workloads::TraceColumnAvailability columns;
  columns.names = false;
  columns.input_paths = false;
  columns.output_paths = false;
  for (const auto& job : trace.jobs()) {
    if (!job.name.empty()) columns.names = true;
    if (!job.input_path.empty()) columns.input_paths = true;
    if (!job.output_path.empty()) columns.output_paths = true;
    if (columns.names && columns.input_paths && columns.output_paths) break;
  }
  return columns;
}

}  // namespace

StatusOr<WorkloadModel> BuildModel(const trace::Trace& trace,
                                   const ModelOptions& options) {
  if (trace.empty()) return InvalidArgumentError("empty trace");
  WorkloadModel model;
  model.source_name = trace.metadata().name;
  model.span_seconds = std::max(trace.Span(), 3600.0);
  model.total_jobs = trace.size();
  model.columns = InferColumns(trace);

  // Whole-job exemplars: uniform reservoir subsample, stripped of paths and
  // reduced to the name's first word (the only part analysis consumes).
  // The reservoir's draws do not depend on the items, so sampling row
  // indices picks the rows sampling the rows themselves would; only the
  // chosen rows are copied.
  const std::vector<trace::JobRecord>& jobs = trace.jobs();
  Pcg32 rng(options.seed, /*stream=*/0x30de1);
  stats::ReservoirSampler<size_t> sampler(
      std::max<size_t>(1, options.exemplar_cap), rng.Fork());
  for (size_t i = 0; i < jobs.size(); ++i) sampler.Add(i);
  model.exemplars.reserve(sampler.sample().size());
  for (size_t i : sampler.sample()) {
    trace::JobRecord& exemplar = model.exemplars.emplace_back(jobs[i]);
    exemplar.input_path.clear();
    exemplar.output_path.clear();
    exemplar.name = FirstWordOfJobName(exemplar.name);
  }

  model.hourly_envelope = ComputeSubmissionSeries(trace).jobs_per_hour;

  // File-access model fitted from the source trace.
  model.file_model.zipf_slope = 5.0 / 6.0;  // paper default when unfittable
  if (model.columns.input_paths) {
    FilePopularity popularity = ComputeInputPopularity(trace);
    if (popularity.zipf.ranks >= 10 && popularity.zipf.slope > 0.0) {
      model.file_model.zipf_slope = popularity.zipf.slope;
    }
    model.file_model.input_files =
        std::max<size_t>(16, popularity.distinct_files / 2);
    Reaccess reaccess = ComputeReaccess(trace);
    model.file_model.input_reaccess_fraction =
        reaccess.fractions.input_reaccess;
    model.file_model.output_reaccess_fraction =
        model.columns.output_paths ? reaccess.fractions.output_reaccess : 0.0;
    if (!reaccess.intervals.input_input.empty()) {
      model.file_model.recency_halflife_seconds =
          std::max(60.0, reaccess.intervals.input_input.median());
    }
  }
  return model;
}

std::string ModelToText(const WorkloadModel& model) {
  std::ostringstream os;
  os.precision(17);  // round-trip doubles exactly
  os << "#swim-model v1\n";
  os << "source=" << model.source_name << "\n";
  os << "span=" << model.span_seconds << "\n";
  os << "total_jobs=" << model.total_jobs << "\n";
  os << "columns=" << model.columns.names << "," << model.columns.input_paths
     << "," << model.columns.output_paths << "\n";
  const auto& f = model.file_model;
  os << "file_model=" << f.input_files << "," << f.zipf_slope << ","
     << f.input_reaccess_fraction << "," << f.output_reaccess_fraction << ","
     << f.recency_bias << "," << f.recency_halflife_seconds << "\n";
  os << "envelope=";
  for (size_t i = 0; i < model.hourly_envelope.size(); ++i) {
    if (i > 0) os << ",";
    os << model.hourly_envelope[i];
  }
  os << "\nexemplars:\n";
  trace::Trace exemplar_trace;
  for (const auto& job : model.exemplars) exemplar_trace.AddJob(job);
  os << trace::TraceToCsv(exemplar_trace);
  return os.str();
}

StatusOr<WorkloadModel> ModelFromText(const std::string& text) {
  WorkloadModel model;
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || !StartsWith(line, "#swim-model")) {
    return InvalidArgumentError("not a swim model (missing magic line)");
  }
  bool saw_exemplars = false;
  while (std::getline(is, line)) {
    if (line == "exemplars:") {
      saw_exemplars = true;
      break;
    }
    auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    if (key == "source") {
      model.source_name = value;
    } else if (key == "span") {
      if (!ParseDouble(value, &model.span_seconds) ||
          !std::isfinite(model.span_seconds)) {
        return InvalidArgumentError("bad span");
      }
    } else if (key == "total_jobs") {
      int64_t v = 0;
      if (!ParseInt64(value, &v) || v < 0 ||
          static_cast<uint64_t>(v) > kMaxJobs) {
        return InvalidArgumentError("bad total_jobs (at most " +
                                    std::to_string(kMaxJobs) + ")");
      }
      model.total_jobs = static_cast<size_t>(v);
    } else if (key == "columns") {
      auto parts = Split(value, ',');
      if (parts.size() != 3) return InvalidArgumentError("bad columns");
      model.columns.names = parts[0] == "1";
      model.columns.input_paths = parts[1] == "1";
      model.columns.output_paths = parts[2] == "1";
    } else if (key == "file_model") {
      auto parts = Split(value, ',');
      if (parts.size() != 6) return InvalidArgumentError("bad file_model");
      int64_t files = 0;
      auto& f = model.file_model;
      if (!ParseInt64(parts[0], &files) || files <= 0 ||
          !ParseDouble(parts[1], &f.zipf_slope) ||
          !ParseDouble(parts[2], &f.input_reaccess_fraction) ||
          !ParseDouble(parts[3], &f.output_reaccess_fraction) ||
          !ParseDouble(parts[4], &f.recency_bias) ||
          !ParseDouble(parts[5], &f.recency_halflife_seconds)) {
        return InvalidArgumentError("bad file_model values");
      }
      f.input_files = static_cast<size_t>(files);
      Status valid = workloads::ValidateFilePopulation(f);
      if (!valid.ok()) {
        return InvalidArgumentError("bad file_model: " + valid.message());
      }
    } else if (key == "envelope") {
      for (const auto& token : Split(value, ',')) {
        double v = 0.0;
        if (!ParseDouble(token, &v) || !std::isfinite(v) || v < 0.0) {
          return InvalidArgumentError("bad envelope value: " + token);
        }
        model.hourly_envelope.push_back(v);
      }
    }
  }
  if (!saw_exemplars) return InvalidArgumentError("missing exemplars section");
  std::ostringstream rest;
  rest << is.rdbuf();
  SWIM_ASSIGN_OR_RETURN(trace::Trace exemplar_trace,
                        trace::TraceFromCsv(rest.str()));
  model.exemplars = exemplar_trace.jobs();
  if (model.exemplars.empty()) {
    return InvalidArgumentError("model has no exemplars");
  }
  if (model.total_jobs == 0) model.total_jobs = model.exemplars.size();
  if (model.span_seconds <= 0.0) {
    return InvalidArgumentError("model span must be positive");
  }
  return model;
}

Status SaveModel(const WorkloadModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot open for writing: " + path);
  out << ModelToText(model);
  out.flush();
  if (!out) return IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<WorkloadModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ModelFromText(buffer.str());
}

}  // namespace swim::core
