// swim_replay: replay a trace on the simulated cluster.
//
//   swim_replay <trace.csv|trace.stf1> [--nodes N]
//               [--scheduler fifo|fair|two-tier|srpt|deadline]
//               [--stragglers P] [--on-error strict|skip|repair]
//               [--task-failures P] [--node-loss R] [--max-attempts N]
//               [--retry-backoff S] [--failure-point F] [--seed S]
//               [--sla-multiplier S[,L]] [--preemption-budget N]
//               [--tenants N] [--tenant-cap N]
//               [--sweep fifo,fair,...] [--sweep-nodes N1,N2,...]
//               [--sweep-seeds S1,S2,...] [--sweep-lanes N]
//               [--sweep-progress]
//
// Prints per-tier latency quantiles, utilization, and occupancy peaks -
// what a scheduler experiment on a real cluster would report. With
// failure injection enabled (--task-failures / --node-loss) an extra
// accounting block reports retries and wasted slot-seconds.
//
// The SLA tier: every job carries a deadline of ideal latency x the
// per-class multiplier (--sla-multiplier small[,large]); the report adds
// per-class SLA-miss fractions. --scheduler srpt|deadline selects the
// size-based and EDF policies; --preemption-budget enables elephant
// preemption (calendar engine only); --tenants/--tenant-cap turn on
// per-tenant admission control. Policy names are validated up front -
// unknown names are a hard error listing the valid policies.
//
// --sweep runs the policy x node-count x seed grid concurrently across
// the thread pool (sim/sweep.h) and prints one line per cell in grid
// order; unswept axes default to the single-run flags. Output is
// byte-identical at any SWIM_THREADS. --sweep-lanes bounds the worker
// lanes for this run without touching the environment; --sweep-progress
// tickers completed/total cells to stderr (stdout stays clean for
// redirection) so a 10k-configuration what-if sweep is observable while
// it runs.
//
// Every numeric flag and list element is parsed whole, finite and
// range-checked into its type (common/flags.h); anything else is a usage
// error naming the flag (exit 2). Value ranges are the engine's to check.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/units.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

constexpr char kUsage[] =
    "usage: swim_replay <trace.csv|trace.stf1> [--nodes N] "
    "[--scheduler fifo|fair|two-tier|srpt|deadline] [--stragglers P]\n"
    "                   [--on-error strict|skip|repair] "
    "[--task-failures P] [--node-loss R]\n"
    "                   [--max-attempts N] [--retry-backoff S] "
    "[--failure-point F] [--seed S]\n"
    "                   [--sla-multiplier S[,L]] [--preemption-budget N] "
    "[--tenants N] [--tenant-cap N]\n"
    "                   [--sweep fifo,fair,...] "
    "[--sweep-nodes N1,N2,...] [--sweep-seeds S1,S2,...]\n"
    "                   [--sweep-lanes N] [--sweep-progress]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  std::string path;
  sim::ReplayOptions options;
  trace::ParseOptions parse_options;
  bool sweep_progress = false;
  int sweep_lanes = 0;
  std::vector<std::string> sweep_policies;
  std::vector<int> sweep_nodes;
  std::vector<uint64_t> sweep_seeds;
  // A typo'd --sweep=fare dies here with the valid names, not after
  // loading a month-long trace.
  const auto policy = [](std::string_view value, std::string* out) {
    out->assign(value);
    return sim::MakeScheduler(*out).status();
  };
  flags::FlagSet cli;
  cli.Add("<trace>", &path)
      .Add("--nodes", &options.cluster.nodes, 1)
      .Add("--scheduler",
           [&](std::string_view value) {
             return policy(value, &options.scheduler);
           })
      .Add("--stragglers", &options.straggler_probability)
      .Add("--on-error", &parse_options.mode, trace::ParseModeFromName)
      .Add("--task-failures", &options.failures.task_failure_probability)
      .Add("--node-loss", &options.failures.node_loss_per_hour)
      .Add("--max-attempts", &options.failures.max_attempts, 1)
      .Add("--retry-backoff", &options.failures.retry_backoff_seconds)
      .Add("--failure-point", &options.failures.failure_point)
      .Add("--seed", &options.seed)
      // One value sets the small (interactive) multiplier; "S,L" sets both.
      .Add("--sla-multiplier",
           [&](std::string_view value) {
             double* next[] = {&options.sla.small_multiplier,
                               &options.sla.large_multiplier};
             size_t count = 0;
             return flags::CommaList([&](std::string_view element) {
               return count < 2 ? flags::ParseFinite(element, next[count++])
                                : InvalidArgumentError("needs S or S,L");
             })(value);
           })
      .Add("--preemption-budget", &options.sla.preemption_budget)
      .Add("--tenants", &options.sla.tenants)
      .Add("--tenant-cap", &options.sla.tenant_max_running)
      .Add("--sweep", flags::CommaList([&](std::string_view element) {
             return policy(element, &sweep_policies.emplace_back());
           }))
      .Add("--sweep-nodes", flags::CommaList([&](std::string_view element) {
             return flags::ParseInt(element, &sweep_nodes.emplace_back(), 1);
           }))
      .Add("--sweep-seeds", flags::CommaList([&](std::string_view element) {
             return flags::ParseInt(element, &sweep_seeds.emplace_back());
           }))
      .Add("--sweep-lanes", &sweep_lanes, 1)
      .Add("--sweep-progress", &sweep_progress);
  Status parsed = cli.Parse(argc, argv);
  if (!parsed.ok()) return flags::UsageError(parsed, kUsage);
  const bool sweep = sweep_progress || sweep_lanes > 0 ||
                     !sweep_policies.empty() || !sweep_nodes.empty() ||
                     !sweep_seeds.empty();

  trace::ParseReport report;
  auto trace = trace::ReadTraceAuto(path, parse_options, &report);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 trace.status().ToString().c_str());
    return 1;
  }
  if (!report.clean()) {
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
  }

  if (sweep) {
    // Unswept axes fall back to the single-run flags.
    if (sweep_policies.empty()) sweep_policies.push_back(options.scheduler);
    if (sweep_nodes.empty()) sweep_nodes.push_back(options.cluster.nodes);
    if (sweep_seeds.empty()) sweep_seeds.push_back(options.seed);
    std::vector<sim::SweepConfig> configs = sim::SweepGrid(
        *trace, options, sweep_policies, sweep_nodes, sweep_seeds);
    sim::SweepOptions sweep_options;
    sweep_options.max_parallelism = sweep_lanes;
    if (sweep_progress) {
      // Throttle the ticker to ~1% steps. Lanes report counts slightly
      // out of order, but each fprintf is one atomic write and the
      // done == total line always fires, so the display converges.
      sweep_options.progress = [](size_t done, size_t total) {
        const size_t step = std::max<size_t>(1, total / 100);
        if (done % step == 0 || done == total) {
          std::fprintf(stderr, "\rsweep: %zu/%zu configs%s", done, total,
                       done == total ? "\n" : "");
        }
      };
    }
    std::vector<StatusOr<sim::ReplayResult>> results =
        sim::RunSweep(configs, sweep_options);
    std::printf("sweep: %zu configurations over %zu jobs\n", configs.size(),
                trace->size());
    int failures = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
      if (!results[i].ok()) {
        std::printf("  %-24s FAILED: %s\n", configs[i].label.c_str(),
                    results[i].status().ToString().c_str());
        ++failures;
        continue;
      }
      const sim::ReplayResult& r = *results[i];
      stats::SortedStats small_latencies = r.LatencyStats(true);
      std::printf(
          "  %-24s makespan=%s util=%.0f%% small-p50=%s sla-miss=%.1f%% "
          "retries=%lld%s\n",
          configs[i].label.c_str(), FormatDuration(r.makespan).c_str(),
          100 * r.utilization,
          r.CountJobs(true) > 0
              ? FormatDuration(small_latencies.Quantile(0.5)).c_str()
              : "n/a",
          100 * r.sla.MissFraction(true),
          static_cast<long long>(r.failures.retries),
          r.unfinished_jobs > 0 ? " (unfinished jobs)" : "");
    }
    return failures == 0 ? 0 : 1;
  }

  auto result = sim::ReplayTrace(*trace, options);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("replayed %zu jobs on %d nodes under %s\n",
              result->outcomes.size(), options.cluster.nodes,
              result->scheduler.c_str());
  std::printf("  makespan: %s, utilization: %.0f%%\n",
              FormatDuration(result->makespan).c_str(),
              100 * result->utilization);
  for (bool small : {true, false}) {
    if (result->CountJobs(small) == 0) continue;
    // One filter + sort per tier; the three quantile reads are O(1).
    stats::SortedStats latencies = result->LatencyStats(small);
    std::printf("  %s jobs (%zu): p50=%s p90=%s p99=%s mean slowdown=%.1fx\n",
                small ? "small" : "large", result->CountJobs(small),
                FormatDuration(latencies.Quantile(0.5)).c_str(),
                FormatDuration(latencies.Quantile(0.9)).c_str(),
                FormatDuration(latencies.Quantile(0.99)).c_str(),
                result->MeanSlowdown(small));
  }
  const sim::SlaStats& sla = result->sla;
  for (bool small : {true, false}) {
    const int64_t total = small ? sla.small_jobs_with_deadline
                                : sla.large_jobs_with_deadline;
    if (total == 0) continue;
    std::printf("  %s-job SLA (%.0fx ideal): %lld/%lld missed (%.1f%%)\n",
                small ? "small" : "large",
                small ? options.sla.small_multiplier
                      : options.sla.large_multiplier,
                static_cast<long long>(small ? sla.small_misses
                                             : sla.large_misses),
                static_cast<long long>(total),
                100 * sla.MissFraction(small));
  }
  if (options.sla.preemption_enabled()) {
    std::printf("  preemption: %lld tasks revoked in %lld rounds "
                "(budget %lld)\n",
                static_cast<long long>(sla.preempted_tasks),
                static_cast<long long>(sla.preemption_rounds),
                static_cast<long long>(options.sla.preemption_budget));
  }
  if (options.sla.admission_enabled()) {
    std::printf("  admission: %d tenants (cap %d), %lld jobs parked, "
                "%s total queueing\n",
                options.sla.tenants, options.sla.tenant_max_running,
                static_cast<long long>(sla.admission_parked_jobs),
                FormatDuration(sla.total_admission_delay).c_str());
  }
  double peak = 0;
  for (double o : result->hourly_occupancy) peak = std::max(peak, o);
  std::printf("  peak hourly occupancy: %.0f slots of %d\n", peak,
              options.cluster.total_map_slots() +
                  options.cluster.total_reduce_slots());
  if (options.failures.enabled()) {
    const sim::FailureStats& f = result->failures;
    std::printf(
        "  failures: %lld task, %lld node losses (%lld tasks lost), "
        "%lld retries\n",
        static_cast<long long>(f.task_failures),
        static_cast<long long>(f.node_losses),
        static_cast<long long>(f.tasks_lost_to_nodes),
        static_cast<long long>(f.retries));
    std::printf("  wasted by failures: %s slot-time, %lld jobs killed\n",
                FormatDuration(f.failed_task_seconds).c_str(),
                static_cast<long long>(f.failed_jobs));
  }
  if (result->unfinished_jobs > 0) {
    std::printf("  WARNING: %zu jobs never completed\n",
                result->unfinished_jobs);
  }
  return 0;
}
