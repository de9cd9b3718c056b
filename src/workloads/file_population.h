#ifndef SWIM_WORKLOADS_FILE_POPULATION_H_
#define SWIM_WORKLOADS_FILE_POPULATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/random.h"
#include "stats/zipf.h"
#include "workloads/workload_spec.h"

namespace swim::workloads {

/// Stateful HDFS path assigner shared by the calibrated trace generator and
/// the SWIM-style synthesizer. Jobs MUST be fed in non-decreasing submit
/// time order. The model (see FilePopulationSpec):
///
///  - an input universe of N "hot" files with Zipf(slope) popularity;
///  - fresh never-again-read files for the cold fraction;
///  - chained reads of earlier outputs (output -> input re-access);
///  - recency-biased re-access with an exponential age distribution,
///    producing the paper's Figure 5 interval CDF.
///
/// Paths are handed out as ids into one dictionary, in first-appearance
/// order (a job's input path before its output path), and each distinct
/// path is formatted once. Fed in the trace's final job order, the ids are
/// the trace's canonical ids. No path is looked up by its string: the hot
/// universes are cached by rank, and every other path is new by
/// construction, so the dictionary is interned in one pass at the end.
class FilePopulationSim {
 public:
  /// `expected_jobs` sizes the access histories up front (a hint: more
  /// jobs still work).
  FilePopulationSim(const FilePopulationSpec& spec,
                    const TraceColumnAvailability& columns, Pcg32 rng,
                    size_t expected_jobs);

  /// A job's path ids; kNoStringId where it has no such path.
  struct PathIds {
    uint32_t input = kNoStringId;
    uint32_t output = kNoStringId;
  };

  /// Assigns the next job's input path (if the spec logs input paths) and
  /// output path (if it logs output paths and the job writes bytes). Job
  /// ids must be distinct: a job's own output path is named after it.
  PathIds AssignPaths(uint64_t job_id, double submit_time, double finish_time,
                      double input_bytes, double output_bytes);

  /// The dictionary the ids index; the simulator is spent afterwards.
  StringInterner TakePaths();

 private:
  /// Time-ordered access log supporting recency-biased sampling.
  class AccessHistory {
   public:
    AccessHistory(double halflife_seconds, size_t expected_entries);
    void Record(double time, uint32_t path_id);
    bool empty() const { return times_.empty(); }
    uint32_t SampleRecent(double now, Pcg32& rng) const;

   private:
    double rate_;
    std::vector<double> times_;
    std::vector<uint32_t> path_ids_;
  };

  /// A new id for `prefix` + `number` zero-padded to `width` digits, a
  /// path no earlier id names.
  uint32_t NewPath(std::string_view prefix, uint64_t number, size_t width);
  /// The same, made once per number and then cached by it in `ids`.
  uint32_t CachedPath(std::vector<uint32_t>& ids, std::string_view prefix,
                      size_t number, size_t width);

  FilePopulationSpec spec_;
  TraceColumnAvailability columns_;
  Pcg32 rng_;
  stats::ZipfSampler input_popularity_;
  stats::ZipfSampler large_input_popularity_;
  stats::ZipfSampler output_popularity_;
  AccessHistory input_history_;
  AccessHistory output_history_;
  size_t fresh_inputs_ = 0;
  std::vector<std::string> paths_;  // id -> path, all distinct
  // Hot-universe rank -> path id (kNoStringId until first drawn).
  std::vector<uint32_t> hot_input_ids_;
  std::vector<uint32_t> hot_large_input_ids_;
  std::vector<uint32_t> hot_output_ids_;
};

}  // namespace swim::workloads

#endif  // SWIM_WORKLOADS_FILE_POPULATION_H_
