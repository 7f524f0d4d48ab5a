// Integral extraction: the paper's Lemma 2 as a test-side checker.
//
// Lemma 2 makes the placement LP's optimum integral on integer data: its
// constraint matrix is totally unimodular. solve_placement returns the
// flow lexmin's fractional placement (the simulator's demands are
// fractional resource-seconds anyway); this checker rounds one. Per
// resource it runs one max flow in resource-seconds: source->job at the
// job's demand, job->slot at its width (at its demand when the width is
// infinite) over its window, and slot->sink at ceil(z_t) of the slot's
// fractional load z_t. The fractional placement fits under those caps, so
// every demand routes, and by the max-flow integrality theorem integer
// demands and widths give an integral flow.
#pragma once

#include <vector>

#include "core/lp_formulation.h"
#include "workload/resources.h"

namespace flowtime::lp {

/// Rounds `fractional`, a solve_placement result for the same `jobs`,
/// `caps` and first slot, to an integral placement that loads each slot
/// with at most the ceiling of its fractional load. Returns `fractional`
/// with the allocation and normalized loads replaced, or with status
/// kNumericalFailure when some resource's max flow falls short of its
/// demand.
core::LpSchedule extract_integral_placement(
    const std::vector<core::LpJob>& jobs,
    const std::vector<workload::ResourceVec>& caps,
    const core::LpSchedule& fractional);

}  // namespace flowtime::lp
