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
//    solves each exactly without building an LP. Simplex (lp/lexmin.h)
//    serves only the coupled formulation below.
//  * Constraint (4) needs no explicit row: the first lexmin level is
//    u = max z_t^r / C_t^r, and the formulation is infeasible w.r.t. the
//    caps exactly when u* > 1 — reported as `capacity_exceeded` so the
//    caller can relax windows instead of getting a hard infeasible.
#pragma once

#include <cstdint>
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

/// Cross-replan warm-start cache for the coupled formulation's simplex
/// lexmin, owned by the caller (one per scheduler). It pairs the final
/// lexmin basis of the previous solve with a fingerprint of the model shape
/// it belongs to; solve_placement_coupled reuses the basis only when the
/// next solve builds the same shape, and falls back to a cold solve on any
/// mismatch. The fingerprint covers structure (columns, rows, per-row
/// sparsity), not data — changed demands/levels under the same shape are
/// exactly what warm starts absorb. The separable formulation's flow
/// lexmin has no basis and leaves the cache alone.
struct PlacementWarmCache {
  std::uint64_t fingerprint = 0;
  lp::Basis basis;

  void clear() { *this = PlacementWarmCache{}; }
};

struct LpScheduleOptions {
  /// The coupled formulation's simplex lexmin settings. Only
  /// lexmin.lp_options.budget also bounds the flow lexmin, which it charges
  /// one unit per augmenting path.
  lp::LexMinMaxOptions lexmin;
  /// Optional warm-start cache for the coupled formulation, shared across
  /// solve_placement calls. Null disables warm starting. Not owned.
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
  /// Round the separable placement to integers (DESIGN.md §5 item 4): one
  /// last max flow per resource, in resource-seconds, with every slot
  /// capped at ceil(z_t) of its lexmin load. Integer demands and widths
  /// then give an integral flow. Off by default because the simulator's
  /// demands are fractional resource-seconds; the coupled formulation
  /// ignores it.
  bool integral_extraction = false;
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
  /// True when any lexmin solve stopped with load rows unfixed — a
  /// SolveBudget cut a flow solve after its first level, or the coupled
  /// formulation's simplex round cap (lexmin.max_rounds) ran out: the plan
  /// is feasible and its peak level exact, but the load profile tail is not
  /// the lexicographic optimum (a plan-quality warning, not a failure).
  bool lexmin_truncated = false;
  /// True when a shared SolveBudget (options.lexmin.lp_options.budget) ran
  /// out during the solve. The schedule may still be ok() — a truncated
  /// feasible point — but the caller's escalation ladder should know the
  /// budget, not the model, bounded its quality.
  bool budget_exhausted = false;
  /// True when the flow lexmin solved at least one resource — every
  /// separable solve with demand; false for the coupled formulation's
  /// simplex. `pivots` then counts augmenting paths.
  bool flow_fast_path = false;

  bool ok() const { return status == lp::SolveStatus::kOptimal; }
};

/// Solves the placement for one horizon: the flow lexmin per resource, or
/// solve_placement_coupled when options.coupled_resources is set.
///
/// `capacity_per_slot[t]` is C_t^r in resource-seconds for slot
/// `first_slot + t`; windows are clipped to [first_slot,
/// first_slot + capacity_per_slot.size()). Jobs whose window is empty after
/// clipping make the problem infeasible (their demand cannot be placed), as
/// do NaN, infinite or negative demands and NaN or negative widths; an
/// infinite width places no bound beyond the job's demand.
LpSchedule solve_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options = {});

/// The coupled-variable variant (see LpScheduleOptions::coupled_resources),
/// solved by the simplex lexmin; called by solve_placement when that option
/// is set. Jobs' demands must be proportional to their widths across
/// resources (true for gang-of-task jobs by construction: both equal
/// tasks x d_i^r x time). For jobs that demand a single resource it is
/// exactly that resource's separable LP, which makes it the simplex
/// reference for the flow lexmin.
LpSchedule solve_placement_coupled(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options = {});

}  // namespace flowtime::core
