// Ablation — the design choices DESIGN.md calls out.
//
// Part 1 (paper §IV-B / Fig. 3): resource-demand-aware deadline
// decomposition vs the traditional critical-path split. On a fork-join
// workflow with n-1 identical parallel middle jobs, critical-path
// decomposition gives the middle node set 1/3 of the deadline while the
// demand-aware split gives it (n-1)/(n+1); under a resource-limited cluster
// only the latter leaves the middle level enough time for its task waves.
// We print the Fig. 3 windows and then measure end-to-end misses under
// FlowTime configured with each decomposition mode.
//
// Part 2: lexicographic refinement depth. The first level alone
// (solve_flow_placement, the admission primitive) already fixes the peak;
// the full flow lexmin (solve_placement) refines every further level and
// flattens the rest of the profile. We report peak, mean and spread of the
// normalized load for both.
#include <cstdio>

#include "bench_trace.h"

#include "core/decomposition.h"
#include "core/flow_placement.h"
#include "core/lp_formulation.h"
#include "dag/generators.h"
#include "sched/experiment.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

workload::JobSpec uniform_job(int tasks, double runtime) {
  workload::JobSpec job;
  job.name = "j";
  job.num_tasks = tasks;
  job.task.runtime_s = runtime;
  job.task.demand = ResourceVec{1.0, 2.0};
  return job;
}

// Fig. 3's graph sized so the middle level cannot fit in 1/3 of the
// deadline on the bench cluster.
workload::Scenario fork_join_scenario(int middle, double deadline) {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "fig3";
  w.start_s = 0.0;
  w.deadline_s = deadline;
  w.dag = dag::make_fork_join(middle);
  w.jobs.assign(static_cast<std::size_t>(middle + 2), uniform_job(40, 60.0));
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

void part1_decomposition_mode() {
  std::printf("--- Part 1: demand-aware vs critical-path decomposition ---\n");

  // The Fig. 3 window illustration.
  const int middle = 9;
  workload::Scenario scenario = fork_join_scenario(middle, 3300.0);
  for (const auto mode : {core::DecompositionMode::kResourceDemand,
                          core::DecompositionMode::kCriticalPath}) {
    core::DecompositionConfig dconfig;
    dconfig.cluster.capacity = ResourceVec{120.0, 256.0};
    dconfig.mode = mode;
    const core::DeadlineDecomposer decomposer(dconfig);
    const auto result = decomposer.decompose(scenario.workflows[0]);
    if (!result) continue;
    std::printf(
        "%s: level windows = [%.0f, %.0f, %.0f] s  (middle share %.2f; "
        "paper: demand-aware -> (n-1)/(n+1) = %.2f, critical-path -> 1/3)\n",
        mode == core::DecompositionMode::kResourceDemand ? "demand-aware "
                                                         : "critical-path",
        result.level_duration_s[0], result.level_duration_s[1],
        result.level_duration_s[2],
        result.level_duration_s[1] / 3300.0,
        static_cast<double>(middle) / (middle + 2));
  }

  // End-to-end: fork-join-heavy workload on a narrow cluster, both modes.
  util::Table table(
      {"decomposition", "jobs_missed", "workflows_missed", "adhoc_mean_s"});
  for (const auto mode : {core::DecompositionMode::kResourceDemand,
                          core::DecompositionMode::kCriticalPath}) {
    sched::ExperimentConfig config;
    config.sim.cluster.capacity = ResourceVec{120.0, 256.0};
    config.sim.max_horizon_s = 8.0 * 3600.0;
    config.flowtime.cluster.capacity = config.sim.cluster.capacity;
    config.flowtime.cluster.slot_seconds = config.sim.cluster.slot_seconds;
    config.flowtime.decomposition_mode = mode;
    config.schedulers = {"FlowTime"};

    workload::Scenario end_to_end;
    util::Rng rng(5);
    for (int i = 0; i < 3; ++i) {
      workload::Workflow w;
      w.id = i;
      w.name = "fj" + std::to_string(i);
      w.start_s = i * 200.0;
      const int width = 8 + 2 * i;
      w.dag = dag::make_fork_join(width);
      w.jobs.assign(static_cast<std::size_t>(width + 2),
                    uniform_job(static_cast<int>(rng.uniform_int(20, 50)),
                                rng.uniform_real(40.0, 80.0)));
      // Deadline: 2.6x the minimum makespan — meetable, but only if the
      // wide middle level receives its demand-proportional share.
      w.deadline_s =
          w.start_s + 2.6 * w.min_makespan_s(config.sim.cluster.capacity);
      end_to_end.workflows.push_back(std::move(w));
    }
    const auto outcomes = sched::run_comparison(end_to_end, config);
    const auto& outcome = outcomes.front();
    table.begin_row()
        .add(std::string(mode == core::DecompositionMode::kResourceDemand
                             ? "demand-aware"
                             : "critical-path"))
        .add(static_cast<std::int64_t>(outcome.deadlines.jobs_missed))
        .add(static_cast<std::int64_t>(outcome.deadlines.workflows_missed))
        .add(outcome.adhoc.mean_turnaround_s, 1);
  }
  std::printf("\n%s\n", table.to_string().c_str());
}

void part2_lexmin_depth() {
  std::printf("--- Part 2: lexicographic refinement depth ---\n");
  util::Rng rng(3);
  std::vector<core::LpJob> jobs;
  const int slots = 120;
  for (int i = 0; i < 40; ++i) {
    core::LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(rng.uniform_int(0, slots / 2));
    job.deadline_slot =
        job.release_slot + static_cast<int>(rng.uniform_int(15, slots / 2));
    job.deadline_slot = std::min(job.deadline_slot, slots - 1);
    const int tasks = static_cast<int>(rng.uniform_int(20, 100));
    job.demand = ResourceVec{tasks * 60.0, tasks * 150.0};
    job.width = ResourceVec{tasks * 10.0, tasks * 25.0};
    jobs.push_back(job);
  }
  const std::vector<ResourceVec> caps(slots, ResourceVec{5000.0, 10240.0});

  util::Table table(
      {"solve", "levels", "peak_load", "mean_load", "load_stddev"});
  const auto add_row = [&](const std::string& solve, std::int64_t levels,
                           const std::vector<std::vector<ResourceVec>>&
                               allocation) {
    std::vector<double> loads;
    for (int t = 0; t < slots; ++t) {
      for (int r = 0; r < workload::kNumResources; ++r) {
        double load = 0.0;
        for (const auto& row : allocation) {
          load += row[static_cast<std::size_t>(t)][r];
        }
        loads.push_back(load / caps[static_cast<std::size_t>(t)][r]);
      }
    }
    table.begin_row()
        .add(solve)
        .add(levels)
        .add(util::max_of(loads), 4)
        .add(util::mean(loads), 4)
        .add(util::stddev(loads), 4);
  };
  const core::FlowPlacementResult first =
      core::solve_flow_placement(jobs, caps, 0);
  if (first.feasible) {
    // solve_flow_placement answers the level only; the rows achieving it
    // come from each resource's level solve.
    std::vector<std::vector<ResourceVec>> rows(
        jobs.size(), std::vector<ResourceVec>(caps.size()));
    for (int r = 0; r < workload::kNumResources; ++r) {
      const core::ResourceFlowLexmin level =
          core::solve_resource_flow_level(jobs, caps, 0, r);
      if (!level.any_demand) continue;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (std::size_t t = 0; t < caps.size(); ++t) {
          rows[j][t][r] = level.allocation[j][t];
        }
      }
    }
    add_row("first level", 1, rows);
  }
  const core::LpSchedule full = core::solve_placement(jobs, caps, 0);
  if (full.ok()) add_row("full lexmin", full.lexmin_rounds, full.allocation);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected: the same peak at both depths; the full lexmin lowers the "
      "load variance (flatter profile => better ad-hoc leftovers).\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (!flowtime::bench::init_trace_out(&argc, argv)) return 1;
  std::printf("=== Ablation: decomposition mode and lexmin depth ===\n\n");
  part1_decomposition_mode();
  std::printf("\n");
  part2_lexmin_depth();
  flowtime::bench::finish_trace_out();
  return 0;
}
