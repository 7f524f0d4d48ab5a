// Typed scheduler events (DESIGN.md §11).
//
// Every interaction the simulator (or a live driver) pushes into a
// scheduling policy is one value of the `SchedulerEvent` variant below.
// Events are plain values — copyable, self-contained, carrying no borrowed
// references with narrower lifetime than the scenario — so they can cross
// thread boundaries: the concurrent runtime (src/runtime) enqueues them
// into a bounded MPSC queue and applies them on the serving side, which is
// impossible with the legacy callback-per-event interface.
//
// The one non-trivial payload is the workflow DAG on arrival. It travels as
// a shared_ptr<const Workflow> so that enqueueing stays O(1): the simulator
// aliases the scenario's workflow (which outlives the run), while a live
// ingestion front-end would hand over an owning pointer. Consumers must not
// assume the pointer outlives the run.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "fault/plan.h"
#include "workload/resources.h"
#include "workload/workflow.h"

namespace flowtime::sim {

/// Dense per-run job identifier assigned by the simulator.
using JobUid = int;

/// A workflow was released: the scheduler sees its full DAG and per-job
/// estimates (workflows recur; prior runs supply them). `node_uids[v]` is
/// the JobUid of DAG node v.
struct WorkflowArrivalEvent {
  std::shared_ptr<const workload::Workflow> workflow;
  std::vector<JobUid> node_uids;
  double now_s = 0.0;
};

/// An ad-hoc job arrived; only identity, time and width are disclosed —
/// never its size (paper §II-A).
struct AdhocArrivalEvent {
  JobUid uid = -1;
  double now_s = 0.0;
  workload::ResourceVec width{};
};

/// A job finished (its completion slot just ended).
struct JobCompleteEvent {
  JobUid uid = -1;
  double now_s = 0.0;
};

/// The cluster's effective capacity changed mid-run (machine failure or
/// recovery). `capacity` is the new per-slot budget in resource-seconds.
struct CapacityChangeEvent {
  double now_s = 0.0;
  workload::ResourceVec capacity{};
};

/// A job lost in-flight work to an injected fault and will retry.
/// `lost_estimate` is the estimated demand re-credited to the job's
/// remaining work; the job is barred from running until `retry_at_s`.
struct TaskFailureEvent {
  JobUid uid = -1;
  double now_s = 0.0;
  workload::ResourceVec lost_estimate{};
  int retry = 0;
  double retry_at_s = 0.0;
};

/// Chaos injection squeezed (budget_ms/pivot_cap limits, forced numerical
/// failure) or, with (-1.0, 0, false), released the scheduler's internal
/// solver. See fault::SolverFault.
struct SolverSabotageEvent {
  double now_s = 0.0;
  double budget_ms = -1.0;
  std::int64_t pivot_cap = 0;
  bool force_numerical_failure = false;
};

/// A whole federation cell (scheduler shard) failed (`active`) or recovered
/// (!`active`) — see fault::CellFault. Only the federated coordinator
/// reacts (failure detection, quarantine, workflow failover); single-cell
/// policies ignore the event. The machines behind the cell are unaffected.
struct CellFaultEvent {
  int cell = 0;
  double now_s = 0.0;
  fault::CellFaultMode mode = fault::CellFaultMode::kCrash;
  bool active = false;
};

/// The unified event type delivered through Scheduler::on_event. Variant
/// order is part of the API (index() is stable for trace consumers); new
/// event types append at the end.
using SchedulerEvent =
    std::variant<WorkflowArrivalEvent, AdhocArrivalEvent, JobCompleteEvent,
                 CapacityChangeEvent, TaskFailureEvent, SolverSabotageEvent,
                 CellFaultEvent>;

/// Simulation timestamp carried by the event.
inline double event_time(const SchedulerEvent& event) {
  return std::visit([](const auto& e) { return e.now_s; }, event);
}

/// Stable lowercase tag for traces and logs ("workflow_arrival", ...).
const char* event_name(const SchedulerEvent& event);

/// True for events that add, remove or resize planned work — the ones a
/// replanning scheduler may react to with a new plan. Ad-hoc arrivals never
/// enter the LP (their size is unknown), SolverSabotageEvent only
/// re-parametrizes the solver, and CellFaultEvent is handled natively by
/// the federated coordinator (which marks the affected cells dirty itself),
/// so none of those count.
bool is_replan_trigger(const SchedulerEvent& event);

}  // namespace flowtime::sim
