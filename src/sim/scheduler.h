// Scheduler interface between the cluster simulator and the scheduling
// policies (FlowTime core and every baseline).
//
// Information boundaries follow the paper's system model (§II-A) exactly:
//   * When a workflow is released the scheduler sees its full DAG and the
//     per-job estimates (workflows recur, so prior runs supply them).
//   * When an ad-hoc job arrives the scheduler sees identity, arrival time
//     and maximum parallelism — never its size.
//   * Ground truth (actual runtimes) lives only inside the simulator.
#pragma once

#include <string>
#include <vector>

#include "dag/dag.h"
#include "sim/events.h"
#include "workload/resources.h"
#include "workload/workflow.h"

namespace flowtime::sim {

using workload::ResourceVec;

enum class JobKind { kDeadline, kAdhoc };

/// Scheduler-visible state of one incomplete job. All quantities derive
/// from estimates; `overrun` flags jobs that consumed their whole estimate
/// without finishing (under-estimated ground truth).
struct JobView {
  JobUid uid = -1;
  JobKind kind = JobKind::kAdhoc;
  int workflow_id = -1;      // kDeadline only
  dag::NodeId node = -1;     // kDeadline only
  double arrival_s = 0.0;
  /// When the job last became runnable: its arrival for ad-hoc jobs, the
  /// completion of its last DAG parent for workflow jobs. This is the
  /// submission time a job-level scheduler (FIFO) would observe from a
  /// workflow manager that submits jobs as their parents finish.
  double ready_since_s = 0.0;
  /// Estimated residual demand (resource-seconds). Zeros for ad-hoc jobs —
  /// their size is unknown by definition.
  ResourceVec remaining_estimate{};
  /// Maximum footprint the job can occupy in one slot (all tasks running),
  /// expressed in resource-seconds per slot.
  ResourceVec width{};
  /// One task's per-slot footprint (the YARN container request). Schedulers
  /// running against node-granular clusters should issue whole multiples.
  ResourceVec container{};
  bool ready = true;    // all DAG parents complete
  bool overrun = false; // estimate exhausted but job still running
};

/// Snapshot handed to Scheduler::allocate each slot.
struct ClusterState {
  int slot = 0;
  double now_s = 0.0;
  double slot_seconds = 10.0;
  ResourceVec capacity{};            // resource-seconds available this slot
  std::vector<JobView> active;       // arrived and incomplete
};

/// One job's share of the current slot, in resource-seconds.
struct Allocation {
  JobUid uid = -1;
  ResourceVec amount{};
};

/// Scheduling policy. The simulator (or the concurrent runtime) drives it
/// with SchedulerEvent values through on_event and asks for one allocation
/// vector per slot. Implementations must stay within capacity and per-job
/// widths; the simulator clamps violations and reports them so tests can
/// assert they never happen.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// The cluster model this policy was configured with, or nullptr when the
  /// policy has none. The simulator compares it against its own spec at the
  /// start of a run and flags config skew — the classic footgun where the
  /// scheduler plans against a different cluster than the one executing.
  virtual const workload::ClusterSpec* cluster_spec() const {
    return nullptr;
  }

  /// The one event entry point. Events arrive in simulation-time order; a
  /// policy must tolerate any interleaving of event kinds and picks out the
  /// kinds it needs (std::get_if / std::visit). The default ignores every
  /// event — enough for policies that decide from ClusterState alone.
  virtual void on_event(const SchedulerEvent& event) { (void)event; }

  virtual std::vector<Allocation> allocate(const ClusterState& state) = 0;
};

}  // namespace flowtime::sim
