// Experiment harness: runs one scenario against FlowTime and the baselines
// and evaluates everyone against the same milestones, the way the paper's
// §VII-B.1 comparison works.
//
// The per-job deadlines used for Fig. 4(a)/(b)-style evaluation are the
// decomposed workflow milestones. They are computed once (by a decomposition
// pass identical to FlowTime's) and applied to every scheduler, so no
// scheduler is judged by a yardstick another one invented.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace flowtime::sched {

struct SchedulerOutcome {
  std::string name;
  sim::SimResult result;
  sim::DeadlineReport deadlines;
  sim::AdhocReport adhoc;
  int replans = 0;                     // FlowTime only (adopted plans)
  int replans_discarded = 0;           // FlowTime only (stale, unadopted)
  std::int64_t pivots = 0;             // FlowTime only
  std::int64_t coalesced_events = 0;   // async runtime only
  std::int64_t stale_solves = 0;       // async runtime only
  int migrations = 0;                  // federated runs only
  int cell_overload_events = 0;        // federated runs only
  int cell_failures = 0;               // federated runs only (fault_cell)
  int failovers = 0;                   // federated runs only (fault_cell)
  int quarantines = 0;                 // federated runs only (fault_cell)
  int cell_recoveries = 0;             // federated runs only (fault_cell)
};

struct ExperimentConfig {
  sim::SimConfig sim;
  core::FlowTimeConfig flowtime;
  /// Schedulers to run, by name. Known names: FlowTime, FlowTime_no_ds,
  /// CORA, EDF, Fair, FIFO, Morpheus, Rayon. Empty = the paper's Fig. 4
  /// set (FlowTime, CORA, EDF, Fair, FIFO).
  std::vector<std::string> schedulers;
  /// Run the FlowTime variants behind the concurrent runtime: events are
  /// queued and the LP solve runs on a background thread (DESIGN.md §11).
  /// Single-cell only: a federated run (cells > 1) solves every cell on
  /// the serving thread and ignores it. Baselines are unaffected (they
  /// have no solver to move).
  bool async_replan = false;
  /// With async_replan: wait for every solve before serving its slot, so
  /// the run is deterministic (plan-for-plan equal to the sync path).
  bool async_barrier = false;
  /// Shard the cluster into this many cells and run the FlowTime variants
  /// federated (cluster::FederatedScheduler): per-cell lexmin plans, greedy
  /// cross-cell routing/migration. 1 = plain single-cell FlowTime.
  int cells = 1;
  /// Partition policy for cells > 1: "balanced" or "round_robin".
  std::string cell_policy = "balanced";

  ExperimentConfig() { flowtime.cluster = sim.cluster; }
};

/// Builds a scheduler by name; terminates on unknown names.
std::unique_ptr<sim::Scheduler> make_scheduler(
    const std::string& name, const ExperimentConfig& config);

/// Decomposed per-job deadlines for the scenario (the shared milestones).
sim::JobDeadlines milestone_deadlines(const workload::Scenario& scenario,
                                      const ExperimentConfig& config);

/// Runs every configured scheduler over the scenario.
std::vector<SchedulerOutcome> run_comparison(
    const workload::Scenario& scenario, const ExperimentConfig& config);

}  // namespace flowtime::sched
