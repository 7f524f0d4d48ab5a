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
//    union of their lexmins — so the LP is built and solved per resource.
//  * Constraint (4) needs no explicit row: the first lexmin round minimizes
//    u = max z_t^r / C_t^r, and the formulation is infeasible w.r.t. the
//    caps exactly when u* > 1 — reported as `capacity_exceeded` so the
//    caller can relax windows instead of getting a hard infeasible.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "lp/lexmin.h"
#include "lp/model.h"
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

/// Cross-replan warm-start cache, owned by the caller (one per scheduler).
/// Each slot pairs the final lexmin basis of the previous solve with a
/// fingerprint of the model shape it belongs to; solve_placement reuses
/// the basis only when the next solve builds the same shape, and falls
/// back to a cold solve on any mismatch. The fingerprint covers structure
/// (columns, rows, per-row sparsity), not data — changed demands/levels
/// under the same shape are exactly what warm starts absorb.
struct PlacementWarmCache {
  struct Entry {
    std::uint64_t fingerprint = 0;
    lp::Basis basis;
  };
  /// Per-resource entries for the separable formulation.
  std::array<Entry, workload::kNumResources> per_resource;
  /// Single entry for the coupled formulation.
  Entry coupled;

  void clear() {
    for (Entry& e : per_resource) e = Entry{};
    coupled = Entry{};
  }
};

struct LpScheduleOptions {
  lp::LexMinMaxOptions lexmin;
  /// Optional warm-start cache shared across solve_placement calls.
  /// Null disables warm starting. Not owned.
  PlacementWarmCache* warm_cache = nullptr;
  /// Resource-coupled variables: instead of independent x_it^r per
  /// resource (the paper's formulation), use one task-time variable f_it
  /// per (job, slot) with the job's per-task bundle d_i^r tying every
  /// resource to it (allocation of r = f_it * d_i^r). Slightly more
  /// constrained than the paper's LP (its optimum can be marginally less
  /// flat), but allocations then always materialize as proportional task
  /// bundles — what containers need. The constraint matrix loses the clean
  /// bipartite TU structure, but remains an LP.
  bool coupled_resources = false;
  /// Re-solve the final allocation as an integral transportation problem
  /// with the lexmin levels as per-slot caps (DESIGN.md §5.4). Requires
  /// integral demands/widths to be meaningful; off by default because the
  /// simulator's demands are fractional resource-seconds.
  bool integral_extraction = false;
  /// Flow lexmin: every per-resource system that is lp::flow_representable
  /// (finite demands and widths) is solved exactly, every level, by
  /// parametric max flow (core/flow_placement.h) instead of the simplex
  /// lexmin; lexmin.max_rounds bounds only simplex solves. The coupled
  /// formulation and integral extraction always take the simplex path.
  /// On by default; false sends every resource through simplex, the
  /// reference the tests and benches of the simplex engine use.
  bool flow_fast_path = true;
};

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
  /// Solver work: simplex pivots plus flow augmenting paths, the unit a
  /// SolveBudget's pivot cap charges.
  std::int64_t pivots = 0;
  /// Most lexmin rounds of any resource (a flow solve's rounds are its
  /// levels).
  int lexmin_rounds = 0;
  /// True when any lexmin solve stopped with load rows unfixed — the
  /// simplex round budget ran out, or a SolveBudget cut a flow solve after
  /// its first level: the plan is feasible and its peak level exact, but
  /// the load profile tail is not the lexicographic optimum (a
  /// plan-quality warning, not a failure).
  bool lexmin_truncated = false;
  /// True when a shared SolveBudget (options.lexmin.lp_options.budget) ran
  /// out during the solve. The schedule may still be ok() — a truncated
  /// feasible point — but the caller's escalation ladder should know the
  /// budget, not the model, bounded its quality.
  bool budget_exhausted = false;
  /// True when at least one resource was solved by the flow lexmin instead
  /// of simplex (see LpScheduleOptions::flow_fast_path); `pivots` then
  /// counts its augmenting paths.
  bool flow_fast_path = false;

  bool ok() const { return status == lp::SolveStatus::kOptimal; }
};

/// Builds and solves the placement for one horizon.
///
/// `capacity_per_slot[t]` is C_t^r in resource-seconds for slot
/// `first_slot + t`; windows are clipped to [first_slot,
/// first_slot + capacity_per_slot.size()). Jobs whose window is empty after
/// clipping make the problem infeasible (their demand cannot be placed).
LpSchedule solve_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options = {});

/// The coupled-variable variant (see LpScheduleOptions::coupled_resources);
/// called by solve_placement when that option is set. Jobs' demands must be
/// proportional to their widths across resources (true for gang-of-task
/// jobs by construction: both equal tasks x d_i^r x time).
LpSchedule solve_placement_coupled(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options = {});

}  // namespace flowtime::core
