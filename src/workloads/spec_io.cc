#include "workloads/spec_io.h"

#include <fstream>
#include <sstream>

#include "common/file_image.h"
#include "common/string_util.h"

namespace swim::workloads {
namespace {

std::string NameWeightsToText(const std::vector<NameWeight>& words) {
  std::string text;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) text += ",";
    text += words[i].word + ":" + std::to_string(words[i].weight);
  }
  return text;
}

StatusOr<std::vector<NameWeight>> NameWeightsFromText(
    const std::string& text) {
  std::vector<NameWeight> words;
  if (StripWhitespace(text).empty()) return words;
  for (const auto& token : Split(text, ',')) {
    auto parts = Split(token, ':');
    if (parts.size() != 2) {
      return InvalidArgumentError("bad name weight: " + token);
    }
    NameWeight nw;
    nw.word = std::string(StripWhitespace(parts[0]));
    if (nw.word.empty() || !ParseDouble(parts[1], &nw.weight) ||
        nw.weight <= 0.0) {
      return InvalidArgumentError("bad name weight: " + token);
    }
    words.push_back(std::move(nw));
  }
  return words;
}

}  // namespace

std::string SpecToText(const WorkloadSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "#swim-spec v1\n";
  os << "name=" << spec.metadata.name << "\n";
  os << "machines=" << spec.metadata.machines << "\n";
  os << "year=" << spec.metadata.year << "\n";
  os << "total_jobs=" << spec.total_jobs << "\n";
  os << "span_seconds=" << spec.span_seconds << "\n";
  os << "columns=" << spec.columns.names << "," << spec.columns.input_paths
     << "," << spec.columns.output_paths << "\n";
  const ArrivalSpec& a = spec.arrival;
  os << "arrival=" << a.diurnal_strength << "," << a.weekend_factor << ","
     << a.burst_log_sigma << "," << a.burst_autocorrelation << ","
     << a.peak_to_median_target << "\n";
  const FilePopulationSpec& f = spec.files;
  os << "files=" << f.input_files << "," << f.zipf_slope << ","
     << f.input_reaccess_fraction << "," << f.output_reaccess_fraction << ","
     << f.recency_bias << "," << f.recency_halflife_seconds << ","
     << f.large_job_bytes << "," << f.large_job_reaccess_scale << ","
     << f.hot_output_max_bytes << "\n";
  os << "default_names=" << NameWeightsToText(spec.default_name_words)
     << "\n";
  for (const auto& jt : spec.job_types) {
    os << "job_type=" << jt.label << "|" << jt.count_weight << "|"
       << jt.input_bytes << "|" << jt.shuffle_bytes << "|" << jt.output_bytes
       << "|" << jt.duration_seconds << "|" << jt.map_task_seconds << "|"
       << jt.reduce_task_seconds << "|" << jt.log_sigma << "|"
       << NameWeightsToText(jt.name_words) << "\n";
  }
  return os.str();
}

StatusOr<WorkloadSpec> SpecFromText(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || !StartsWith(line, "#swim-spec")) {
    return InvalidArgumentError("not a swim spec (missing magic line)");
  }
  WorkloadSpec spec;
  int line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": expected key=value");
    }
    std::string key(StripWhitespace(line.substr(0, eq)));
    std::string value = line.substr(eq + 1);
    auto fail = [&](const std::string& what) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": bad " + what);
    };
    if (key == "name") {
      spec.metadata.name = std::string(StripWhitespace(value));
    } else if (key == "machines" || key == "year" || key == "total_jobs") {
      int64_t v = 0;
      if (!ParseInt64(value, &v) || v < 0) return fail(key);
      if (key == "machines") spec.metadata.machines = static_cast<int>(v);
      if (key == "year") spec.metadata.year = static_cast<int>(v);
      if (key == "total_jobs") spec.total_jobs = static_cast<size_t>(v);
    } else if (key == "span_seconds") {
      if (!ParseDouble(value, &spec.span_seconds)) return fail(key);
    } else if (key == "columns") {
      auto parts = Split(value, ',');
      if (parts.size() != 3) return fail(key);
      spec.columns.names = StripWhitespace(parts[0]) == "1";
      spec.columns.input_paths = StripWhitespace(parts[1]) == "1";
      spec.columns.output_paths = StripWhitespace(parts[2]) == "1";
    } else if (key == "arrival") {
      auto parts = Split(value, ',');
      if (parts.size() != 5) return fail(key);
      ArrivalSpec& a = spec.arrival;
      if (!ParseDouble(parts[0], &a.diurnal_strength) ||
          !ParseDouble(parts[1], &a.weekend_factor) ||
          !ParseDouble(parts[2], &a.burst_log_sigma) ||
          !ParseDouble(parts[3], &a.burst_autocorrelation) ||
          !ParseDouble(parts[4], &a.peak_to_median_target)) {
        return fail(key);
      }
    } else if (key == "files") {
      auto parts = Split(value, ',');
      if (parts.size() != 9) return fail(key);
      FilePopulationSpec& f = spec.files;
      int64_t files = 0;
      if (!ParseInt64(parts[0], &files) || files <= 0 ||
          !ParseDouble(parts[1], &f.zipf_slope) ||
          !ParseDouble(parts[2], &f.input_reaccess_fraction) ||
          !ParseDouble(parts[3], &f.output_reaccess_fraction) ||
          !ParseDouble(parts[4], &f.recency_bias) ||
          !ParseDouble(parts[5], &f.recency_halflife_seconds) ||
          !ParseDouble(parts[6], &f.large_job_bytes) ||
          !ParseDouble(parts[7], &f.large_job_reaccess_scale) ||
          !ParseDouble(parts[8], &f.hot_output_max_bytes)) {
        return fail(key);
      }
      f.input_files = static_cast<size_t>(files);
    } else if (key == "default_names") {
      SWIM_ASSIGN_OR_RETURN(spec.default_name_words,
                            NameWeightsFromText(value));
    } else if (key == "job_type") {
      auto parts = Split(value, '|');
      if (parts.size() != 10) return fail("job_type (need 10 '|' fields)");
      JobTypeSpec jt;
      jt.label = std::string(StripWhitespace(parts[0]));
      if (!ParseDouble(parts[1], &jt.count_weight) ||
          !ParseDouble(parts[2], &jt.input_bytes) ||
          !ParseDouble(parts[3], &jt.shuffle_bytes) ||
          !ParseDouble(parts[4], &jt.output_bytes) ||
          !ParseDouble(parts[5], &jt.duration_seconds) ||
          !ParseDouble(parts[6], &jt.map_task_seconds) ||
          !ParseDouble(parts[7], &jt.reduce_task_seconds) ||
          !ParseDouble(parts[8], &jt.log_sigma)) {
        return fail("job_type numeric fields");
      }
      SWIM_ASSIGN_OR_RETURN(jt.name_words, NameWeightsFromText(parts[9]));
      spec.job_types.push_back(std::move(jt));
    } else {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": unknown key '" + key + "'");
    }
  }
  SWIM_RETURN_IF_ERROR(ValidateSpec(spec));
  return spec;
}

Status SaveSpec(const WorkloadSpec& spec, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot open for writing: " + path);
  out << SpecToText(spec);
  out.flush();
  if (!out) return IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<WorkloadSpec> LoadSpec(const std::string& path) {
  SWIM_ASSIGN_OR_RETURN(FileImage image, FileImage::Read(path));
  return SpecFromText(std::string(image.view()));
}

}  // namespace swim::workloads
