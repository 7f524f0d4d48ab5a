// Lexicographic min-max solver (paper §V, objective (1)).
//
// FlowTime's objective is
//
//     lexmin_x  max_{t,r}  z_t^r / C_t^r
//
// — the lexicographically minimal vector of normalized per-slot loads,
// sorted in decreasing order. The paper proves (Lemma 1) that this equals
// minimizing the scalar  Σ k^{u_i}  with k = |T||R|; that transform is a
// proof device (k^{u} overflows doubles immediately), so like production
// fair-allocation solvers we compute the same optimum with the standard
// iterative scheme:
//
//   round 1: minimize u s.t. load_k(x) <= u * n_k for all k  -> level u1
//   identify the rows that must sit at u1 in every optimum, freeze them at
//   level u1, constrain all others by u1, and repeat on the rest.
//
// Row fixing uses the dual test (a binding row with a strictly positive dual
// must stay binding), with one fallback: if no candidate has a positive
// dual the round would stall, so all binding rows are fixed.
//
// Exactness caveat (this simplex driver only): the FIRST coordinate (the
// overall min-max) is exact. Deeper coordinates are exact only when the
// binding set at each level is unique; when every binding row is
// *individually* reducible (the argmax shifts between optima), the stall
// fallback fixes all candidates, which can over-constrain later levels.
// The caveat does not reach the scheduler, whose every placement runs the
// exact flow lexmin of core/flow_placement.h; this driver is test-only,
// the differential reference (lp/placement_simplex.h).
#pragma once

#include <string>
#include <vector>

#include "lp/lexmin_trace.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace flowtime::lp {

/// One coordinate of the lexmin-max vector: a linear expression over the
/// base problem's columns plus its normalizer (`C_t^r` in the paper).
struct LoadRow {
  std::vector<RowEntry> entries;
  double normalizer = 1.0;
  std::string name;
};

struct LexMinMaxOptions {
  int max_rounds = 64;        // safety valve; each round fixes >= 1 row
  double level_tol = 1e-6;    // load within this of u* counts as binding
  double dual_tol = 1e-7;     // dual magnitude that forces fixing
  /// Thread each round's final basis into the next solve and
  /// accept a caller-provided basis for round 1. On by default — warm
  /// starting never changes the result, only the pivot count; the switch
  /// exists for cold-baseline benchmarking and bisection.
  bool warm_start = true;
  SimplexOptions lp_options;
};

struct LexMinMaxResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  std::vector<double> x;       // solution over the base problem's columns
  std::vector<double> load;    // final normalized load of every LoadRow
  std::vector<double> levels;  // distinct levels fixed, in decreasing order
  int rounds = 0;
  std::int64_t pivots = 0;  // total simplex pivots across all rounds
  /// True when `max_rounds` ran out with rows still unfixed: the first
  /// `levels.size()` lexicographic coordinates are exact (subject to the
  /// header caveat) but the tail of the profile was never refined. The
  /// solution is still feasible for every recorded level; callers that
  /// care about plan quality should treat a truncated result as a
  /// warning, not as the lexicographic optimum.
  bool truncated = false;
  /// True when the shared SolveBudget (lp_options.budget) ran out during
  /// this solve. When a feasible point from an earlier (or cut-short) round
  /// was available the result reports kOptimal with `truncated` set — the
  /// placement is usable but not the lexicographic optimum; otherwise the
  /// budget's status (kTimeout / kIterationLimit) is propagated.
  bool budget_exhausted = false;
  /// Final simplex basis of the last round, for warm-starting the next
  /// lexmin solve of a same-shaped instance (see LexMinMaxSolver::solve).
  Basis final_basis;

  bool optimal() const { return status == SolveStatus::kOptimal; }
  /// The overall min-max value (first lexicographic coordinate).
  double max_level() const { return levels.empty() ? 0.0 : levels.front(); }
};

/// Solves lexmin-max over `loads` subject to `base`'s rows and bounds.
/// The base problem's own objective coefficients are ignored.
///
/// Incremental hot path: one working problem (base + u column + one row per
/// load) is built once and mutated in place across rounds; each solve
/// warm-starts from the previous basis, so successive
/// rounds cost a handful of repair pivots instead of a full two-phase
/// solve. `warm` optionally seeds round 1 from a previous lexmin solve of a
/// same-shaped instance (e.g. the last re-plan); a stale or mismatched hint
/// falls back to a cold first round.
class LexMinMaxSolver {
 public:
  explicit LexMinMaxSolver(LexMinMaxOptions options = {});

  LexMinMaxResult solve(const LpProblem& base,
                        const std::vector<LoadRow>& loads,
                        const Basis* warm = nullptr) const;

 private:
  LexMinMaxResult solve_impl(const LpProblem& base,
                             const std::vector<LoadRow>& loads,
                             const Basis* warm) const;

  LexMinMaxOptions options_;
};

}  // namespace flowtime::lp
