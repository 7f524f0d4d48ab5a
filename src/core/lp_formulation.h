// The scheduling LP (paper §V).
//
// Original formulation, per resource type r and time slot t:
//
//   lexmin max_t,r  z_t^r / C_t^r                                   (1)
//   s.t.   sum_{t=a_i}^{d_i} x_it^r = s_i^r      for every job i    (2)
//          sum_i x_it^r = z_t^r                  for every t, r     (3)
//          z_t^r <= C_t^r                                           (4)
//          x_it^r >= 0 (integral by Lemma 2)                        (5)
//
// plus a per-slot width bound x_it^r <= W_i^r (a job cannot occupy more
// than all of its tasks at once), which appends identity rows and therefore
// preserves total unimodularity.
//
// Two observations this implementation exploits (documented in DESIGN.md):
//
//  * Separability: x_it^r appears in exactly one demand row (i, r) and one
//    load row (t, r). Resource types couple only through the lexicographic
//    objective, and the lexmin of a union of independent vectors is the
//    union of their lexmins — so the LP splits into one transportation
//    problem per resource, and the flow lexmin (core/flow_placement.h)
//    solves each exactly without building an LP.
//  * Constraint (4) needs no explicit row: the first lexmin level is
//    u = max z_t^r / C_t^r, and the formulation is infeasible w.r.t. the
//    caps exactly when u* > 1 — reported as `capacity_exceeded` so the
//    caller can relax windows instead of getting a hard infeasible.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/solve_budget.h"
#include "lp/solve_status.h"
#include "workload/resources.h"

namespace flowtime::core {

/// One deadline-aware job as the LP sees it, in slot units.
struct LpJob {
  int uid = -1;             // caller's identifier, echoed back
  int release_slot = 0;     // a_i (inclusive)
  int deadline_slot = 0;    // d_i (inclusive; already slack-adjusted)
  workload::ResourceVec demand{};  // s_i^r, resource-seconds
  workload::ResourceVec width{};   // W_i^r, resource-seconds per slot
};

// The slot-window rule every module that builds an LpJob shares. Slot t
// covers [tS, (t+1)S); each conversion carries a 1e-9 guard so a time that
// float noise puts a hair off a slot boundary lands on the boundary.

/// The slot containing `seconds`: a window's release slot (a_i), or the
/// current slot. floor(t/S + 1e-9).
int release_slot_of(double seconds, double slot_seconds);

/// The last slot that ends by `seconds`: a window's deadline slot (d_i).
/// ceil(t/S - 1e-9) - 1.
int deadline_slot_of(double seconds, double slot_seconds);

/// Fewest slots `demand` needs at `width` per slot: the maximum over
/// resources of ceil(demand / width - 1e-9), and at least 1. A resource
/// whose demand or width is at most 1e-9 does not bind.
int min_slots(const workload::ResourceVec& demand,
              const workload::ResourceVec& width);

/// Widens `job`'s window to its minimum slots: moves deadline_slot out to
/// release_slot + min_slots(demand, width) - 1 when it ends sooner.
/// Returns whether it moved.
bool widen_to_min_slots(LpJob& job);

/// Cross-replan solver state, owned by the caller (one per planner, see
/// FlowTimeScheduler::solve_replan). The flow lexmin starts every solve
/// from zero flow today, so the cache is empty; it is where a warm start
/// across replans would keep the previous flow.
struct PlacementWarmCache {};

/// The planned allocation: x[job_index][slot - first_slot] per resource.
struct LpSchedule {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  /// True when even the flattest placement exceeds some slot's capacity —
  /// the deadline windows are collectively infeasible (paper constraint (4)
  /// violated at the optimum).
  bool capacity_exceeded = false;
  int first_slot = 0;
  int num_slots = 0;
  /// allocation[j][t][r]: resource-seconds granted to jobs[j] in slot
  /// first_slot + t.
  std::vector<std::vector<workload::ResourceVec>> allocation;
  /// Normalized load per slot and resource after placement.
  std::vector<workload::ResourceVec> normalized_load;
  double max_normalized_load = 0.0;
  /// Solver work: flow augmenting paths, the unit a SolveBudget's pivot cap
  /// charges.
  std::int64_t pivots = 0;
  /// Most lexmin rounds of any resource (a flow solve's rounds are its
  /// levels).
  int lexmin_rounds = 0;
  /// True when a SolveBudget cut a flow solve after its first level: the
  /// plan is feasible and its peak level exact, but the load profile tail
  /// is not the lexicographic optimum (a plan-quality warning, not a
  /// failure).
  bool lexmin_truncated = false;
  /// True when the solve's SolveBudget ran out. The schedule may still be
  /// ok() — a truncated feasible point — but the caller's escalation ladder
  /// should know the budget, not the model, bounded its quality.
  bool budget_exhausted = false;
  /// True when the flow lexmin solved at least one resource — every solve
  /// with demand; false for an empty job set and the greedy fallback.
  bool flow_fast_path = false;

  bool ok() const { return status == lp::SolveStatus::kOptimal; }
};

/// Solves the placement for one horizon: the flow lexmin per resource.
///
/// `capacity_per_slot[t]` is C_t^r in resource-seconds for slot
/// `first_slot + t`; windows are clipped to [first_slot,
/// first_slot + capacity_per_slot.size()). Jobs whose window is empty after
/// clipping make the problem infeasible (their demand cannot be placed), as
/// do NaN, infinite or negative demands and NaN or negative widths; an
/// infinite width places no bound beyond the job's demand. `budget`, when
/// given, bounds every resource's solve (one unit per augmenting path);
/// null = unlimited.
LpSchedule solve_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, lp::SolveBudget* budget = nullptr);

}  // namespace flowtime::core
