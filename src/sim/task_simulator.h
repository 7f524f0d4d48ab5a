// Task-level, non-preemptive cluster simulator.
//
// The fluid Simulator treats a job as divisible resource-time — the
// abstraction the paper's LP works in. Real YARN execution is coarser:
// a job is a set of discrete tasks; once a task starts it holds its
// container until it finishes (no preemption, no partial slots). This
// simulator executes scenarios at that granularity while keeping the same
// Scheduler interface: a scheduler's per-slot grant is interpreted as the
// TARGET footprint for the job, and the simulator
//
//   * keeps already-running tasks running regardless of the new grant
//     (non-preemption: a shrinking plan drains, it does not kill), and
//   * launches new tasks up to the granted footprint while respecting the
//     global capacity and DAG readiness.
//
// Completion happens when the job's last task finishes. Used by the
// substrate-fidelity tests and bench: results should track the fluid
// simulator closely when task runtimes are small relative to windows, and
// diverge visibly when single tasks span many slots.
#pragma once

#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace flowtime::sim {

struct TaskSimConfig {
  workload::ClusterSpec cluster;
  double max_horizon_s = 48.0 * 3600.0;
};

/// Runs one scenario at task granularity. Reuses SimResult; the
/// per-slot "used" series records the occupancy of running tasks.
class TaskLevelSimulator {
 public:
  explicit TaskLevelSimulator(TaskSimConfig config = {});

  SimResult run(const workload::Scenario& scenario, Scheduler& scheduler);

 private:
  TaskSimConfig config_;
};

}  // namespace flowtime::sim
