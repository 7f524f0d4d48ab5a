// LP-free fallback placement (DESIGN.md §10 "Graceful degradation").
//
// Rung 1 of FlowTimeScheduler's escalation ladder: when the flow lexmin
// fails (budget exhausted, numerical failure, infeasible after window
// repair), this routine still produces a complete placement for every
// job — in O(jobs * slots * resources) arithmetic with no iteration counts
// to bound and no tolerances to trip, so it cannot itself fail.
//
// Algorithm (earliest-deadline-first water filling):
//   * Jobs are processed in (deadline_slot, release_slot, uid) order — the
//     job with the least room to maneuver claims capacity first.
//   * Each job needs at least n = ceil(demand / width) occupied slots (per
//     the binding resource); n is clamped to the window length, matching
//     the late-extension semantics of the LP path (an impossible window
//     still gets a densest-possible placement rather than nothing).
//   * The job's demand is spread evenly over the n window slots whose
//     normalized load (after the jobs placed so far) is lowest — ties break
//     toward earlier slots, keeping the result deterministic and finishing
//     jobs early when the profile is flat.
//
// Quality contract: every job receives its full demand inside its (clipped)
// window, exactly like an ok() LP schedule; what is lost is flatness — the
// greedy profile can exceed the lexmin peak, and `capacity_exceeded` fires
// whenever the packed load tops capacity. Oversubscription is deliberately
// NOT clipped here: the scheduler's allocator already shrinks per-slot
// grants proportionally, and clipping twice would strand demand.
#pragma once

#include <vector>

#include "core/lp_formulation.h"
#include "workload/resources.h"

namespace flowtime::core {

/// Drop-in replacement for solve_placement: same inputs, same LpSchedule
/// shape, status always kOptimal. `capacity_per_slot[t]` is the capacity of
/// slot `first_slot + t` in resource-seconds.
LpSchedule greedy_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot);

}  // namespace flowtime::core
