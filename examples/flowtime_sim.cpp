// Command-line simulator: run any scenario file against any scheduler mix.
//
//   ./build/examples/flowtime_sim --file examples/scenarios/etl.scn
//       --schedulers FlowTime,EDF,Fair
//
// Flags:
//   --file PATH          scenario file (see src/workload/scenario_io.h for
//                        the format); required unless --dump-example
//   --schedulers LIST    comma-separated (default FlowTime,CORA,EDF,Fair,
//                        FIFO,Morpheus,Rayon)
//   --slack SECONDS      FlowTime deadline slack (default 60)
//   --csv-prefix PREFIX  write <PREFIX><scheduler>_util.csv and
//                        <PREFIX><scheduler>_jobs.csv per scheduler
//   --trace-out PATH     stream solver/scheduler/simulator events to PATH
//                        as JSONL (see DESIGN.md "Observability")
//   --prom-out PATH      write the final metric registry to PATH in the
//                        Prometheus text exposition format
//   --fault-seed N       override the fault plan's RNG seed (scenario files
//                        declare faults with the fault* directives)
//   --solver-budget-ms N cap FlowTime's per-replan LP solving at N ms of
//                        wall clock; exceeding it escalates down the
//                        graceful-degradation ladder (DESIGN.md §10)
//   --async-replan       run the FlowTime variants behind the concurrent
//                        runtime: events are queued and the LP solve runs
//                        on a background thread while the current plan
//                        keeps serving (DESIGN.md §11). Single-cell only:
//                        rejected with --cells > 1
//   --async-barrier      with --async-replan: wait for every solve before
//                        serving its slot — deterministic (plan-for-plan
//                        identical to the synchronous path)
//   --cells N            shard the cluster into N cells and run the
//                        FlowTime variants federated: per-cell lexmin
//                        plans, greedy cross-cell routing and hotspot
//                        migration (DESIGN.md §13)
//   --cell-policy P      partition policy for --cells > 1: "balanced"
//                        (default) or "round_robin"
//   --stats-every N      print a metric-registry snapshot to stderr every
//                        N simulated slots (implies metrics collection)
//   --dump-example       print a commented example scenario and exit
#include <cstdio>

#include "cli_common.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/experiment.h"
#include "sim/report.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/scenario_io.h"

using namespace flowtime;

namespace {

const char* kExample = R"(# FlowTime scenario example
# A two-stage pipeline with a 30-minute deadline plus one interactive job.
cluster cores=100 mem_gb=256 slot_seconds=10

workflow id=0 name=nightly-etl start=0 deadline=1800
job node=0 name=extract tasks=20 runtime=60 cores=1 mem=2
job node=1 name=clean tasks=40 runtime=45 cores=1 mem=2
job node=2 name=report tasks=10 runtime=30 cores=1 mem=2
edge 0 1
edge 1 2
end

adhoc id=0 name=interactive-query arrival=120 tasks=8 runtime=30 cores=1 mem=1
)";

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.get_bool("dump-example", false)) {
    std::printf("%s", kExample);
    return 0;
  }
  const std::string path = flags.get_string("file", "");
  const std::string scheduler_list = flags.get_string(
      "schedulers", "FlowTime,CORA,EDF,Fair,FIFO,Morpheus,Rayon");
  const double slack = flags.get_double("slack", 60.0);
  const std::string csv_prefix = flags.get_string("csv-prefix", "");
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string prom_out = flags.get_string("prom-out", "");
  const double fault_seed = flags.get_double("fault-seed", -1.0);
  const double solver_budget_ms = flags.get_double("solver-budget-ms", 0.0);
  const bool async_replan = flags.get_bool("async-replan", false);
  const bool async_barrier = flags.get_bool("async-barrier", false);
  const int cells = static_cast<int>(flags.get_double("cells", 1.0));
  const std::string cell_policy = flags.get_string("cell-policy", "balanced");
  const int stats_every =
      static_cast<int>(flags.get_double("stats-every", 0.0));
  for (const std::string& typo : flags.unqueried()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", typo.c_str());
  }
  if (async_replan && cells > 1) {
    std::fprintf(stderr,
                 "flowtime_sim: --async-replan is single-cell; a federated "
                 "run (--cells > 1) solves on the serving thread\n");
    return 2;
  }
  if (!trace_out.empty() && !obs::open_trace_file(trace_out)) {
    return cli::fail(trace_out, "cannot open trace file");
  }
  if (!prom_out.empty() || stats_every > 0) {
    obs::set_enabled(true);  // metrics without a sink
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: flowtime_sim --file scenario.scn "
                 "[--schedulers A,B] [--slack 60] [--dump-example]\n");
    return 2;
  }

  workload::ParseError error;
  const auto parsed = workload::load_scenario_file(path, &error);
  if (!parsed) return cli::fail(path, error);

  sched::ExperimentConfig config;
  if (parsed->cluster) {
    config.sim.cluster.capacity = parsed->cluster->capacity;
    config.sim.cluster.slot_seconds = parsed->cluster->slot_seconds;
  }
  config.sim.fault_plan = parsed->fault_plan;
  if (fault_seed >= 0.0) {
    config.sim.fault_plan.seed = static_cast<std::uint64_t>(fault_seed);
  }
  config.flowtime.cluster.capacity = config.sim.cluster.capacity;
  config.flowtime.cluster.slot_seconds = config.sim.cluster.slot_seconds;
  config.flowtime.deadline_slack_s = slack;
  config.flowtime.solver_budget_ms = solver_budget_ms;
  config.async_replan = async_replan;
  config.async_barrier = async_barrier;
  config.cells = cells;
  config.cell_policy = cell_policy;
  if (stats_every > 0) {
    // Periodic registry snapshots to stderr (stdout carries the report
    // table). Counters are cumulative across the run — and across the
    // schedulers of a comparison, since the registry is global.
    config.sim.stats_every_slots = stats_every;
    config.sim.stats_hook = [](int slot, double now_s) {
      std::fprintf(stderr, "--- stats @ slot %d (t=%.0fs) ---\n%s", slot,
                   now_s, obs::registry().render_text().c_str());
    };
  }
  for (const std::string& name : util::split(scheduler_list, ',')) {
    if (!name.empty()) config.schedulers.push_back(name);
  }

  std::printf("Scenario: %zu workflow(s), %zu ad-hoc job(s); cluster %.0f "
              "cores / %.0f GB.\n\n",
              parsed->scenario.workflows.size(),
              parsed->scenario.adhoc_jobs.size(),
              config.sim.cluster.capacity[workload::kCpu],
              config.sim.cluster.capacity[workload::kMemory]);

  const auto outcomes = sched::run_comparison(parsed->scenario, config);
  util::Table table({"scheduler", "jobs_missed", "workflows_missed",
                     "delta_max_s", "adhoc_mean_s", "adhoc_p95_s",
                     "completed"});
  for (const auto& outcome : outcomes) {
    if (!csv_prefix.empty()) {
      sim::write_file(csv_prefix + outcome.name + "_util.csv",
                      sim::utilization_csv(outcome.result));
      sim::write_file(csv_prefix + outcome.name + "_jobs.csv",
                      sim::jobs_csv(outcome.result));
    }
    const auto deltas = outcome.deadlines.job_deltas();
    table.begin_row()
        .add(outcome.name)
        .add(static_cast<std::int64_t>(outcome.deadlines.jobs_missed))
        .add(static_cast<std::int64_t>(outcome.deadlines.workflows_missed))
        .add(util::max_of(deltas), 1)
        .add(outcome.adhoc.mean_turnaround_s, 1)
        .add(outcome.adhoc.p95_turnaround_s, 1)
        .add(std::string(outcome.result.all_completed ? "all" : "PARTIAL"));
  }
  std::printf("%s", table.to_string().c_str());
  if (cells > 1) {
    std::printf("\nFederation (%d cells, policy %s):\n", cells,
                cell_policy.c_str());
    for (const auto& outcome : outcomes) {
      if (outcome.replans == 0) continue;  // baselines are not federated
      std::printf("  %-12s replans %d, migrations %d, cell overloads %d\n",
                  outcome.name.c_str(), outcome.replans, outcome.migrations,
                  outcome.cell_overload_events);
      if (outcome.cell_failures > 0 || outcome.quarantines > 0) {
        std::printf(
            "  %-12s cell failures %d, quarantines %d, failovers %d, "
            "recoveries %d\n",
            "", outcome.cell_failures, outcome.quarantines,
            outcome.failovers, outcome.cell_recoveries);
      }
    }
  }
  if (!config.sim.fault_plan.empty()) {
    std::printf("\nFault injection (seed %llu):\n",
                static_cast<unsigned long long>(config.sim.fault_plan.seed));
    for (const auto& outcome : outcomes) {
      const fault::FaultLog& log = outcome.result.faults;
      std::printf(
          "  %-12s machine down/up %d/%d, capacity changes %d, task "
          "failures %d (retried %d), stragglers %d, noised jobs %d, cell "
          "faults %d (recovered %d)\n",
          outcome.name.c_str(), log.machine_downs, log.machine_ups,
          log.capacity_changes, log.task_failures, log.task_retries,
          log.stragglers, log.noised_jobs, log.cell_faults,
          log.cell_recoveries);
    }
  }
  if (!prom_out.empty()) {
    sim::write_file(prom_out,
                    obs::render_prometheus(obs::registry().snapshot()));
    std::printf("\nPrometheus metrics written to %s\n", prom_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::clear_trace_sink();  // flush + close before reporting the path
    std::printf("\nObservability: events written to %s; solver/replan "
                "counters:\n%s\nAnalyze the trace with: "
                "./build/examples/trace_report %s\n",
                trace_out.c_str(), obs::registry().render_text().c_str(),
                trace_out.c_str());
  }
  return 0;
}
