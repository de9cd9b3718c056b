// Ablation for section 6.2: the small-big job dichotomy implies splitting
// the cluster into a performance tier (interactive small jobs) and a
// capacity tier (batch). We replay a generated FB-2009-shaped workload
// under FIFO, fair, and two-tier scheduling and compare small-job latency
// ("interactive latency ... durations of less than a minute") against
// large-job completion.
// All replay cells run concurrently through sim::RunSweep (results come
// back in configuration order, bit-identical at any SWIM_THREADS), so the
// ablation saturates cores instead of replaying policies one at a time.
//
// The SLA section replays a saturated FB-2010 mix with failure injection
// under every policy plus the preemption/admission variants and reports
// p99 interactive latency and SLA-miss fraction per policy; --json
// records the rows (BENCH_scheduler_tiers.json) with an informational
// srpt/deadline-vs-FIFO p99 gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/units.h"
#include "sim/sweep.h"

int main(int argc, char** argv) {
  using namespace swim;
  const std::string json_path = bench::ParseBenchFlags(argc, argv);
  bench::BenchJsonWriter json;
  bench::Banner("Scheduler ablation: protecting interactive jobs (sec. 6.2)");
  for (const auto& name : {"FB-2009", "CC-c"}) {
    trace::Trace t = bench::BenchTrace(name, /*job_cap=*/20000);
    auto spec = workloads::PaperWorkloadByName(name);
    // Shrink the cluster by the same factor the job count was scaled, so
    // load intensity matches the production deployment.
    int nodes = std::max<int>(
        10, static_cast<int>(static_cast<double>(spec->metadata.machines) *
                             static_cast<double>(t.size()) /
                             static_cast<double>(spec->total_jobs)));
    std::printf("%s (%zu jobs, cluster scaled to %d nodes):\n", name,
                t.size(), nodes);
    std::printf("  %-9s %14s %14s %14s %16s %12s\n", "policy",
                "small p50", "small p90", "small p99", "large p50",
                "utilization");
    sim::ReplayOptions base;
    base.cluster.nodes = nodes;
    std::vector<sim::SweepConfig> configs = sim::SweepGrid(
        t, base, {"fifo", "fair", "two-tier"}, {nodes}, {base.seed});
    std::vector<StatusOr<sim::ReplayResult>> results = sim::RunSweep(configs);
    for (size_t i = 0; i < configs.size(); ++i) {
      SWIM_CHECK_OK(results[i].status());
      const sim::ReplayResult& result = *results[i];
      stats::SortedStats small_latencies = result.LatencyStats(true);
      std::printf("  %-9s %14s %14s %14s %16s %11.0f%%\n",
                  configs[i].options.scheduler.c_str(),
                  FormatDuration(small_latencies.Quantile(0.5)).c_str(),
                  FormatDuration(small_latencies.Quantile(0.9)).c_str(),
                  FormatDuration(small_latencies.Quantile(0.99)).c_str(),
                  FormatDuration(result.LatencyQuantile(false, 0.5)).c_str(),
                  100 * result.utilization);
    }
  }

  bench::Banner("Straggler sensitivity (sec. 6.2)");
  trace::Trace t = bench::BenchTrace("FB-2010", 15000);
  std::printf("  %-24s %14s %14s %16s\n", "straggler config", "small p50",
              "small p99", "p99+speculation");
  constexpr double kProbabilities[] = {0.0, 0.05, 0.2};
  std::vector<sim::SweepConfig> configs;
  for (double p : kProbabilities) {
    for (bool speculative : {false, true}) {
      sim::SweepConfig config;
      config.trace = &t;
      config.options.cluster.nodes = 60;  // 3000 scaled by the 15k/1.17M cap
      config.options.scheduler = "fair";
      config.options.straggler_probability = p;
      config.options.straggler_factor = 8.0;
      config.options.speculative_execution = speculative;
      configs.push_back(std::move(config));
    }
  }
  std::vector<StatusOr<sim::ReplayResult>> results = sim::RunSweep(configs);
  for (size_t i = 0; i < results.size(); i += 2) {
    SWIM_CHECK_OK(results[i].status());
    SWIM_CHECK_OK(results[i + 1].status());
    char label[32];
    std::snprintf(label, sizeof(label), "p=%.2f factor=8x",
                  configs[i].options.straggler_probability);
    stats::SortedStats small_latencies = results[i]->LatencyStats(true);
    std::printf("  %-24s %14s %14s %16s\n", label,
                FormatDuration(small_latencies.Quantile(0.5)).c_str(),
                FormatDuration(small_latencies.Quantile(0.99)).c_str(),
                FormatDuration(
                    results[i + 1]->LatencyQuantile(true, 0.99)).c_str());
  }
  bench::Banner("SLA tier: saturated cluster + failures (ROADMAP item 3)");
  {
    // The straggler section's FB-2010 trace on a deliberately undersized
    // cluster (saturation is where policy choice matters), with both
    // failure modes on: the scenario the ISSUE's acceptance criterion
    // names. Deadlines are ideal x4 (small) / x12 (large).
    sim::ReplayOptions base;
    base.cluster.nodes = 35;
    base.failures.task_failure_probability = 0.02;
    base.failures.node_loss_per_hour = 2.0;
    struct SlaCell {
      const char* label;
      const char* policy;
      int64_t preemption_budget;
      int tenants;
    };
    const SlaCell cells[] = {
        {"fifo", "fifo", 0, 0},
        {"fair", "fair", 0, 0},
        {"two-tier", "two-tier", 0, 0},
        {"srpt", "srpt", 0, 0},
        {"deadline", "deadline", 0, 0},
        {"srpt+preempt", "srpt", 20000, 0},
        {"deadline+pre+adm", "deadline", 20000, 12},
    };
    std::vector<sim::SweepConfig> sla_configs;
    for (const SlaCell& cell : cells) {
      sim::SweepConfig config;
      config.trace = &t;
      config.options = base;
      config.options.scheduler = cell.policy;
      config.options.sla.preemption_budget = cell.preemption_budget;
      config.options.sla.tenants = cell.tenants;
      config.label = cell.label;
      sla_configs.push_back(std::move(config));
    }
    std::vector<StatusOr<sim::ReplayResult>> sla_results =
        sim::RunSweep(sla_configs);
    std::printf("  %-16s %12s %12s %10s %10s %10s\n", "policy",
                "small p50", "small p99", "sla-miss", "preempted",
                "adm-park");
    double fifo_p99 = 0.0;
    double best_new_p99 = 0.0;
    for (size_t i = 0; i < sla_configs.size(); ++i) {
      SWIM_CHECK_OK(sla_results[i].status());
      const sim::ReplayResult& result = *sla_results[i];
      stats::SortedStats small_latencies = result.LatencyStats(true);
      const double p99 = small_latencies.Quantile(0.99);
      std::printf("  %-16s %12s %12s %9.1f%% %10lld %10lld\n",
                  sla_configs[i].label.c_str(),
                  FormatDuration(small_latencies.Quantile(0.5)).c_str(),
                  FormatDuration(p99).c_str(),
                  100 * result.sla.MissFraction(true),
                  static_cast<long long>(result.sla.preempted_tasks),
                  static_cast<long long>(
                      result.sla.admission_parked_jobs));
      json.Add("sla_small_p99_seconds_" + sla_configs[i].label, p99, 1);
      json.Add("sla_small_miss_fraction_" + sla_configs[i].label,
               result.sla.MissFraction(true), 1);
      if (sla_configs[i].label == "fifo") fifo_p99 = p99;
      if (sla_configs[i].label == "srpt" ||
          sla_configs[i].label == "deadline") {
        best_new_p99 = best_new_p99 == 0.0 ? p99
                                           : std::min(best_new_p99, p99);
      }
    }
    // Informational gate: SRPT or deadline should beat FIFO on p99
    // interactive latency under saturation + failures. Recorded as a
    // speedup row (> 1 means beating); the bench does not hard-fail on
    // it.
    const double speedup =
        best_new_p99 > 0.0 ? fifo_p99 / best_new_p99 : 0.0;
    json.Add("sla_best_vs_fifo_p99_speedup", speedup, 1);
    std::printf("  best srpt/deadline p99 vs FIFO: %.2fx %s\n", speedup,
                speedup > 1.0 ? "(beats FIFO)"
                              : "(INFO: does not beat FIFO)");
  }

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  std::printf(
      "\nTakeaways vs paper: FIFO lets occasional huge jobs head-of-line\n"
      "block the >90%% small-job mass; fair sharing and the two-tier split\n"
      "restore interactive latency without starving the capacity tier.\n"
      "Stragglers hit small single-wave jobs directly (no other tasks to\n"
      "hide behind), inflating tail latency. Speculative execution only\n"
      "partially recovers the tail: single-task jobs have no sibling to\n"
      "compare against - the paper's re-assessment of straggler\n"
      "mitigation for small jobs.\n");
  return 0;
}
