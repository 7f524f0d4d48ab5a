// Slot-based discrete-event cluster simulator.
//
// Substitutes for the paper's YARN testbed (see DESIGN.md §2). Time advances
// in fixed slots (default 10 s, the paper's slot length). Each slot the
// simulator feeds the scheduler a snapshot and applies the returned
// allocation to ground truth:
//
//   * a job absorbs at most its width per slot and at most its remaining
//     actual demand per resource; the width cap applies to the sum of the
//     job's allocations in the slot, so a job listed twice is checked,
//     delivered and completed once,
//   * allocations to jobs whose DAG parents have not finished are wasted
//     (precedence is physical, not advisory),
//   * a job completes at the end of the slot in which every resource's
//     actual demand reaches zero.
//
// Units: all per-slot quantities (capacity, width, allocation) are
// resource-seconds, i.e. cores*slot_seconds for CPU. Demands are
// resource-seconds as well, so "capacity per slot" = capacity * slot_seconds.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.h"  // FaultPlan (config) + FaultLog (result)
#include "sim/scheduler.h"
#include "workload/trace_gen.h"

namespace flowtime::sim {

struct SimConfig {
  /// The authoritative cluster model (cores, memory GB, slot length).
  /// Schedulers exposing cluster_spec() are checked against it at run
  /// start; mismatches are reported as config skew.
  workload::ClusterSpec cluster;        // Fig. 7 cluster, 10 s slots (§VI)
  double max_horizon_s = 48.0 * 3600.0; // safety stop
  /// Node-granular (YARN-like) execution: when > 0 the cluster is
  /// `num_nodes` identical machines and every grant is realized as whole
  /// task containers placed first-fit onto nodes; work that does not pack
  /// is lost to fragmentation (reported in SimResult). 0 = fluid mode: the
  /// cluster is one divisible resource pool, the paper's LP abstraction.
  int num_nodes = 0;
  /// Fault-injection plan (machine churn, task faults, stragglers,
  /// estimate noise). Empty by default: the fault path is skipped entirely
  /// and runs are byte-identical to pre-fault builds. All fault randomness
  /// derives from `fault_plan.seed`, so one seed fixes the whole run.
  fault::FaultPlan fault_plan;
  /// Periodic observability hook: when > 0, `stats_hook` fires at the end
  /// of every Nth simulated slot with the slot index and the slot's end
  /// time. The library never writes to stdout/stderr itself —
  /// flowtime_sim --stats-every=N wires this to a metric-registry printer.
  int stats_every_slots = 0;
  std::function<void(int slot, double now_s)> stats_hook;
};

/// Outcome of one job.
struct JobRecord {
  JobUid uid = -1;
  JobKind kind = JobKind::kAdhoc;
  std::string name;
  int workflow_id = -1;
  dag::NodeId node = -1;
  double arrival_s = 0.0;
  /// End of the completion slot; unset if the horizon expired first.
  std::optional<double> completion_s;
  ResourceVec actual_demand{};

  double turnaround_s() const {
    return completion_s ? *completion_s - arrival_s : -1.0;
  }
};

struct SimResult {
  std::vector<JobRecord> jobs;            // indexed by JobUid
  std::vector<ResourceVec> used_per_slot; // delivered work per slot
  std::vector<ResourceVec> allocated_per_slot;  // granted (incl. waste)
  int slots_simulated = 0;
  double slot_seconds = 10.0;
  bool all_completed = false;

  /// Wall-clock end of the simulated period.
  double end_s() const { return slots_simulated * slot_seconds; }
  // Contract violations by the scheduler; well-behaved policies keep all
  // three at zero (tests assert this).
  int capacity_violations = 0;
  int width_violations = 0;
  int not_ready_allocations = 0;
  /// Node mode only: granted work that could not be realized as whole
  /// containers on any node (fragmentation + quantization loss).
  ResourceVec fragmentation_lost{};
  /// Fault-injection activity this run (all zero for empty plans). The
  /// obs `fault.*` counters and `fault_injected`/`task_retry`/
  /// `capacity_change` trace events carry the same story per event.
  fault::FaultLog faults;
};

/// Runs one scenario against one scheduler. The simulator is reusable;
/// each run() is independent.
class Simulator {
 public:
  explicit Simulator(SimConfig config = {});

  SimResult run(const workload::Scenario& scenario, Scheduler& scheduler);

 private:
  SimConfig config_;
};

}  // namespace flowtime::sim
