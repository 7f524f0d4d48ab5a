// Exact lexmin placement by parametric max flow (DESIGN.md §5 item 9).
//
// Each resource's placement problem is a bipartite transportation problem
// (DESIGN.md §5.2): jobs supply demand, slots consume it under capacity,
// widths cap the job->slot edges. Its achievable slot-load vectors are the
// bases of a polymatroid, so the lexmin-max of z_t / C_t is the
// lexicographically optimal base for the weights C (Fujishige 1980), and
// repeated parametric max flow computes it exactly (Gallo, Grigoriadis and
// Tarjan 1989).
//
// The network has one node per elementary interval, not per slot: the
// horizon is cut at every clipped window start, every window end + 1 and
// every change in slot capacity, so the k slots of an interval share one
// capacity and one set of jobs. Permuting them maps any placement to one
// with the same sorted loads, and the lexmin load vector is unique, so it
// is equal on them (the critical-interval argument of Yao, Demers and
// Shenker, FOCS 1995). The interval problem, with a job->interval arc of
// k * w_j and a sink arc of u * sum C_t, therefore has exactly the slot
// problem's levels. J jobs make at most 2J + 1 intervals plus one per
// capacity change: at most J * (2J + 1) arcs on a uniform horizon, however
// many slots it has.
//
//   1. Level. The least u at which a max flow routes all demand D when
//      every free interval is capped at u * C (and every fixed interval at
//      its frozen level). Newton steps on the min cut find it: start at
//      the lower bound u = (D - fixed capacity) / C(free intervals); while
//      the max flow falls short, the source side of its min cut gives
//      u <- u + (D - flow) / C(free intervals on the source side). A cut
//      with no free capacity routes no more at any level: infeasible.
//   2. Freeze. The free intervals that cannot reach the sink in the
//      residual graph (the source side of the maximal min cut) are the
//      maximal tight set: every lexmin optimum holds them at exactly u.
//   3. Repeat until every covered interval (one some job can use) is
//      fixed.
//
// Every level is exact, so the result is the whole lexicographic optimum,
// not just its peak. This is solve_placement's only solver; the tests
// check it against a simplex lexmin of the same per-resource LP
// (tests/support/lp/placement_simplex.h).
//
// Back to slots, earliest deadline first: callers get per-slot rows. Each
// interval's per-job flow is split so that every slot of the interval
// carries the same load. In each slot every job first takes what it must
// run for its remainder to fit its width in the interval's later slots;
// then the rest of the slot's share goes to the jobs in deadline order
// (ties by job index), each up to its width. The must-run parts never
// exceed the share and the widths always have room for it, so the split
// keeps every load of the lexmin and every width, and runs the
// earlier-deadline work first within the interval.
//
// Inputs: an infinite width caps a job's share of one slot at its demand
// (a job never places more than its demand in one slot), so k times that on
// a job->interval arc of k slots; a NaN, infinite or negative demand, a NaN
// or negative width, or a window clipped to nothing makes the resource
// kInfeasible with an INFO log line.
//
// Work is counted in augmenting paths on the interval network. A
// SolveBudget charges one unit per path and is polled between paths
// (lp::FlowNetwork::max_flow), so pivot caps, wall budgets and cancel
// tokens cut a flow solve between paths: before the first level is found
// the budget's status (kTimeout or kIterationLimit) comes back; after it,
// the last completed level's flow comes back as a truncated plan, split to
// slots the same way.
//
// The first level alone is the cheap feasibility primitive: admission
// checks and capacity what-if queries (solve_flow_placement) stop there.
// They read only the level's value, so solve_flow_placement neither copies
// the flows off the network nor splits them to slots: it builds no per-slot
// row at all. solve_resource_flow_level is the same solve with the rows.
// Before any network is built, solve_flow_placement checks each resource's
// width bound, the demand its jobs could route with unbounded slot
// capacity: R = sum_j min(d_j, w_j * n_j) over each job's clipped window.
// When the demand D exceeds R by far more than the level solve's routing
// tolerance, no level routes D, so it answers infeasible at once. This is
// DCoflow's early rejection on a necessary condition; closer cases, and
// jobs with the defects above, go to the exact solve, so no verdict
// changes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/solve_budget.h"

namespace flowtime::core {

/// One resource's flow lexmin.
struct ResourceFlowLexmin {
  /// kOptimal; kInfeasible when some demand cannot be routed at any level
  /// (an empty window, widths too narrow, or an invalid demand or width —
  /// see the header comment); the budget's kTimeout /
  /// kIterationLimit when it ran out before the first level was found; or
  /// kNumericalFailure should rounding keep the Newton steps from
  /// converging.
  lp::SolveStatus status = lp::SolveStatus::kOptimal;
  /// True when some job's demand for this resource is not zero (an invalid
  /// one included); when false, the levels are empty and the allocation is
  /// zero.
  bool any_demand = false;
  /// Distinct levels fixed, in decreasing order (levels.front() is the
  /// min-max load).
  std::vector<double> levels;
  /// Normalized load z_t / C_t per slot, t relative to first_slot.
  std::vector<double> load;
  /// allocation[j][t] in resource-seconds, t relative to first_slot; rows
  /// are sized num_slots for every job (zero where nothing was placed).
  std::vector<std::vector<double>> allocation;
  std::int64_t augmentations = 0;  // augmenting paths over every max flow
  /// The budget ran out after the first level: the allocation is the last
  /// completed level's flow (feasible, peak exact, tail unrefined).
  bool truncated = false;
  bool budget_exhausted = false;
  /// Problem size, for traces: jobs with demand, elementary intervals
  /// (the network's slot nodes) and job->interval arcs.
  int jobs = 0;
  int intervals = 0;
  int edges = 0;

  bool ok() const { return status == lp::SolveStatus::kOptimal; }
  double max_level() const { return levels.empty() ? 0.0 : levels.front(); }
};

/// The exact lexmin of one resource's placement: every level, so the load
/// vector is the lexicographic optimum. Windows are clipped to
/// [first_slot, first_slot + capacity_per_slot.size()). Emits the
/// `lexmin_solve` trace event and the lp.lexmin.* / lp.flow.augmentations
/// counters when observability is on. `budget` may be null (unlimited).
ResourceFlowLexmin solve_resource_flow_lexmin(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, int resource, lp::SolveBudget* budget = nullptr);

/// The first level only: the min-max load and per-slot rows achieving it,
/// split to slots like the lexmin's. One Newton search, no refinement and
/// no trace events.
ResourceFlowLexmin solve_resource_flow_level(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, int resource);

/// The verdict of a first-level check: no placement comes with it (rows
/// that achieve the level come from solve_resource_flow_level).
struct FlowPlacementResult {
  bool feasible = false;        // all demands placeable within windows/caps
  double min_max_level = 0.0;   // smallest uniform load bound u (max over
                                // resources); > 1 means windows exceed caps
};

/// The first level of every resource, value only: the admission / what-if
/// check "does this fit, and at what peak load?". Each resource's level is
/// the one solve_resource_flow_level finds. Inputs match solve_placement. A
/// width bound that rules the jobs out answers without a solve (header
/// comment) and counts `core.admission.width_limited` when observability
/// is on.
FlowPlacementResult solve_flow_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot);

}  // namespace flowtime::core
