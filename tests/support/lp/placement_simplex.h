// The simplex reference for the flow lexmin (core/flow_placement.h).
//
// solve_placement splits the paper's LP (§V) into one transportation
// problem per resource and solves each by parametric max flow. This builds
// each resource's transportation LP directly — one column per (job, slot of
// its window) bounded by the job's width, one demand row per job, one load
// row per slot normalized by the slot's capacity — and solves it with the
// simplex lexmin (lp/lexmin.h). The per-resource results merge the way
// solve_placement merges its flow solves; the first failing resource ends
// the solve.
#pragma once

#include <array>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/lexmin.h"

namespace flowtime::lp {

/// One lexmin basis per resource.
using ResourceBases = std::array<Basis, workload::kNumResources>;

/// Solves the placement of `jobs` over `caps` (slot t is first_slot + t)
/// by the simplex lexmin, one resource at a time. `options` configure
/// every resource's lexmin; a budget in options.lp_options is shared by
/// all of them. `bases`, when given, warm-starts each resource's first
/// round from its entry and receives that resource's final basis, so a
/// sequence of same-shaped solves can thread it from solve to solve.
core::LpSchedule solve_placement_simplex(
    const std::vector<core::LpJob>& jobs,
    const std::vector<workload::ResourceVec>& caps, int first_slot,
    const LexMinMaxOptions& options = {}, ResourceBases* bases = nullptr);

}  // namespace flowtime::lp
