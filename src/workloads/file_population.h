#ifndef SWIM_WORKLOADS_FILE_POPULATION_H_
#define SWIM_WORKLOADS_FILE_POPULATION_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "stats/zipf.h"
#include "trace/job_record.h"
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
class FilePopulationSim {
 public:
  /// `expected_jobs` sizes the access histories up front (a hint: more
  /// jobs still work).
  FilePopulationSim(const FilePopulationSpec& spec,
                    const TraceColumnAvailability& columns, Pcg32 rng,
                    size_t expected_jobs);

  /// Assigns input_path (if the spec logs input paths) and output_path (if
  /// it logs output paths and the job writes bytes). submit_time, duration
  /// and byte fields must already be set.
  void AssignPaths(trace::JobRecord& job);

 private:
  /// Time-ordered access log supporting recency-biased sampling.
  class AccessHistory {
   public:
    AccessHistory(double halflife_seconds, size_t expected_entries);
    void Record(double time, const std::string& path);
    bool empty() const { return times_.empty(); }
    const std::string& SampleRecent(double now, Pcg32& rng) const;

   private:
    double rate_;
    std::vector<double> times_;
    std::vector<std::string> paths_;
  };

  FilePopulationSpec spec_;
  TraceColumnAvailability columns_;
  Pcg32 rng_;
  stats::ZipfSampler input_popularity_;
  stats::ZipfSampler large_input_popularity_;
  stats::ZipfSampler output_popularity_;
  AccessHistory input_history_;
  AccessHistory output_history_;
  size_t fresh_inputs_ = 0;
};

}  // namespace swim::workloads

#endif  // SWIM_WORKLOADS_FILE_POPULATION_H_
