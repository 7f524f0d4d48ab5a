// Two-phase bounded-variable primal simplex.
//
// Test-only: the reference LP solver behind the lexmin driver
// (lp/lexmin.h), the simplex placement reference (lp/placement_simplex.h)
// and branch-and-bound. The scheduler solves its placement LP by
// parametric max flow (core/flow_placement.h). Design goals, in order:
//   1. Vertex solutions, the extreme points the paper's integrality
//      argument (Lemma 2, Meyer 1977) is about; interior-point methods
//      would not deliver them.
//   2. Robustness on the scheduler's problem family: sparse matrices with
//      small data, up to a few hundred rows and tens of thousands of
//      columns.
//   3. Exploit sparsity: revised simplex over the model's CSC column view
//      with one basis engine, a sparse LU factorization plus product-form
//      eta updates, refactorized periodically. Columns of the scheduling
//      LPs carry 2-3 nonzeros, so pricing, ftran and btran are all
//      O(nnz)-ish.
//
// Implementation notes:
//   * Rows are converted to equalities with bounded slacks
//     (<=  : slack in [0, inf),  =  : slack fixed at 0,
//      >=  : slack in (-inf, 0]).
//   * Phase 1 uses artificial variables and minimizes their sum; phase 2
//     fixes artificials at zero and optimizes the true objective from the
//     phase-1 basis.
//   * Dantzig pricing over a rotating candidate section (partial pricing)
//     with automatic fallback to Bland's rule after a run of degenerate
//     pivots, which guarantees termination.
//   * Warm starts: a Solution carries the final Basis; a later solve of a
//     same-shaped problem may pass it back. The engine refactorizes the
//     hinted basis and, when data changes left it primal infeasible, runs a
//     repair phase that relaxes only the violated variables' bounds and
//     drives the violation out — far cheaper than the all-artificial
//     phase 1. Unusable hints (shape mismatch, singular basis, repair
//     failure) fall back to a cold solve, so warm starting never changes
//     the result, only the pivot count.
#pragma once

#include <cstdint>

#include "lp/model.h"
#include "lp/solve_budget.h"

namespace flowtime::lp {

/// Solver tuning knobs. Defaults are appropriate for the scheduling LPs.
struct SimplexOptions {
  double feasibility_tol = 1e-7;   // bound/row violation considered zero
  double optimality_tol = 1e-7;    // reduced-cost threshold
  double pivot_tol = 1e-9;         // minimum pivot magnitude
  std::int64_t max_iterations = 0; // 0 = auto: 200 * (rows + cols) + 2000
  int refactor_interval = 128;     // refactorize the basis every N pivots
  int degenerate_before_bland = 32;
  /// Partial pricing: per pivot, columns are scanned in sections of this
  /// size (rotating through the column space) and the best violated
  /// candidate of the first non-empty section enters. Optimality is only
  /// declared after a full empty wrap. 0 = auto: max(64, columns / 8);
  /// small problems therefore still see full Dantzig pricing.
  int pricing_section = 0;
  /// Shared solve budget (wall-clock watchdog + pivot cap + cancellation),
  /// checked between pivots. Not owned; null = unlimited, which leaves the
  /// solve path identical to a build without budgets. See
  /// lp/solve_budget.h for the sharing and determinism contract.
  SolveBudget* budget = nullptr;
};

/// Solves `problem` (minimization). The returned Solution carries primal
/// values, row activities, duals (phase-2 y vector, one per row), the
/// pivot count and the final basis. Thread-compatible: one solver instance
/// per thread.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});

  /// Cold solve.
  Solution solve(const LpProblem& problem) const {
    return solve(problem, nullptr);
  }

  /// Solve with an optional warm-start basis (may be null or stale; see the
  /// header comment — a bad hint costs one fallback, never correctness).
  Solution solve(const LpProblem& problem, const Basis* warm) const;

 private:
  Solution solve_impl(const LpProblem& problem, const Basis* warm) const;

  SimplexOptions options_;
};

}  // namespace flowtime::lp
