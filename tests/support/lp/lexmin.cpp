#include "lp/lexmin.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "lp/solve_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::lp {

LexMinMaxSolver::LexMinMaxSolver(LexMinMaxOptions options)
    : options_(options) {}

LexMinMaxResult LexMinMaxSolver::solve(
    const LpProblem& base, const std::vector<LoadRow>& loads,
    const Basis* warm) const {
  if (!obs::enabled()) return solve_impl(base, loads, warm);

  double wall_s = 0.0;
  LexMinMaxResult result;
  {
    obs::ScopedTimer timer(
        &wall_s, &obs::registry().histogram("lp.lexmin.solve_seconds"));
    result = solve_impl(base, loads, warm);
  }
  LexminTrace trace;
  trace.engine = "simplex";
  trace.rows = base.num_rows();
  trace.cols = base.num_columns();
  trace.loads = loads.size();
  trace.status = result.status;
  trace.rounds = result.rounds;
  trace.pivots = result.pivots;
  trace.levels = result.levels.size();
  trace.max_level = result.max_level();
  trace.truncated = result.truncated;
  trace.budget_exhausted = result.budget_exhausted;
  trace.wall_s = wall_s;
  record_lexmin_solve(trace);
  return result;
}

LexMinMaxResult LexMinMaxSolver::solve_impl(
    const LpProblem& base, const std::vector<LoadRow>& loads,
    const Basis* warm) const {
  LexMinMaxResult result;
  const std::size_t k_total = loads.size();
  std::vector<bool> fixed(k_total, false);
  SimplexSolver solver(options_.lp_options);

  if (!options_.warm_start) warm = nullptr;

  if (k_total == 0) {
    // Nothing to balance: any feasible point of the base problem will do.
    LpProblem p = base;
    for (int j = 0; j < p.num_columns(); ++j) p.set_objective_coeff(j, 0.0);
    Solution s = solver.solve(p, warm);
    result.status = s.status;
    result.x = std::move(s.x);
    result.pivots = s.iterations;
    result.final_basis = std::move(s.basis);
    if (options_.lp_options.budget != nullptr) {
      result.budget_exhausted = options_.lp_options.budget->exhausted();
    }
    return result;
  }

  // One working problem for every round: base columns/rows with a zeroed
  // objective, the scalar u (minimized), and one row per load:
  //   free k:   load_k - n_k * u <= 0
  //   fixed k:  load_k           <= level_k * n_k   (u coefficient removed)
  // Rounds mutate coefficients and rhs in place — the shape never changes,
  // so every solve can warm-start from the previous basis.
  LpProblem p = base;
  for (int j = 0; j < p.num_columns(); ++j) p.set_objective_coeff(j, 0.0);
  const int u_column = p.add_column(1.0, 0.0, kInfinity, "u");
  const int first_load_row = p.num_rows();
  for (std::size_t k = 0; k < k_total; ++k) {
    std::vector<RowEntry> entries = loads[k].entries;
    entries.push_back(RowEntry{u_column, -loads[k].normalizer});
    p.add_row(RowSense::kLessEqual, 0.0, std::move(entries), loads[k].name);
  }

  Basis basis;  // rolling warm-start hint, threaded round to round
  if (warm != nullptr && !warm->empty()) basis = *warm;

  std::size_t num_fixed = 0;
  while (num_fixed < k_total && result.rounds < options_.max_rounds) {
    ++result.rounds;
    // Per-round breakdown for the solver-phase profile: each round is one
    // LP solve, and the rounds-vs-pivots shape is what distinguishes "many
    // cheap levels" from "one giant degenerate solve" in trace_report.
    if (SolveProfile* profile = current_profile()) ++profile->lexmin_rounds;
    const bool traced = obs::enabled();
    const double round_wall0 = traced ? obs::wall_now_s() : 0.0;
    const std::int64_t round_pivots0 = result.pivots;
    const std::size_t round_fixed0 = num_fixed;
    double round_level = 0.0;
    const auto emit_round = [&] {
      if (!traced) return;
      obs::emit(obs::TraceEvent("lexmin_round")
                    .field("round", result.rounds)
                    .field("level", round_level)
                    .field("pivots", result.pivots - round_pivots0)
                    .field("fixed",
                           static_cast<std::int64_t>(num_fixed - round_fixed0))
                    .field("total_fixed", static_cast<std::int64_t>(num_fixed))
                    .field("wall_s", obs::wall_now_s() - round_wall0));
    };
    const Solution s = solver.solve(
        p, options_.warm_start && !basis.empty() ? &basis : nullptr);
    result.pivots += s.iterations;
    if (!s.optimal()) {
      SolveBudget* budget = options_.lp_options.budget;
      if (budget != nullptr && budget->exhausted()) {
        result.budget_exhausted = true;
        // A phase-2 cutoff still returns a feasible (unproven) point; a
        // phase-1 cutoff returns none, but an earlier round may have. In
        // either case the best feasible point seen becomes a truncated
        // result instead of a failure; with no feasible point at all the
        // budget's status propagates and the caller's ladder escalates.
        if (!s.x.empty()) {
          result.x.assign(s.x.begin(), s.x.begin() + base.num_columns());
        }
        if (!result.x.empty()) {
          emit_round();
          break;
        }
      }
      result.status = s.status;
      emit_round();
      return result;
    }
    if (options_.warm_start) basis = s.basis;
    const double level = s.x[static_cast<std::size_t>(u_column)];
    round_level = level;
    result.x.assign(s.x.begin(), s.x.begin() + base.num_columns());

    // Candidates: free rows binding at this level.
    std::vector<std::size_t> candidates;
    for (std::size_t k = 0; k < k_total; ++k) {
      if (fixed[k]) continue;
      double load = 0.0;
      for (const RowEntry& e : loads[k].entries) {
        load += e.coeff * s.x[static_cast<std::size_t>(e.column)];
      }
      const double normalized = load / loads[k].normalizer;
      if (normalized >= level - options_.level_tol) candidates.push_back(k);
    }
    if (level <= options_.level_tol) {
      // Everything remaining can sit at (effectively) zero; finish.
      for (std::size_t k = 0; k < k_total; ++k) {
        if (!fixed[k]) {
          fixed[k] = true;
          ++num_fixed;
        }
      }
      result.levels.push_back(std::max(level, 0.0));
      emit_round();
      break;
    }

    std::vector<std::size_t> to_fix;
    for (std::size_t k : candidates) {
      const double dual = s.duals[static_cast<std::size_t>(
          first_load_row + static_cast<int>(k))];
      if (std::abs(dual) > options_.dual_tol) to_fix.push_back(k);
    }
    if (to_fix.empty()) to_fix = candidates;  // stall guard
    if (to_fix.empty()) {                     // numerically nothing binds
      emit_round();
      break;
    }

    for (std::size_t k : to_fix) {
      fixed[k] = true;
      ++num_fixed;
      // Freeze the row in place: detach it from u and cap it at the level.
      const int row = first_load_row + static_cast<int>(k);
      p.set_row_coeff(row, u_column, 0.0);
      p.set_row(row, RowSense::kLessEqual, level * loads[k].normalizer);
    }
    result.levels.push_back(level);
    emit_round();
  }

  if (num_fixed < k_total) {
    // Round budget exhausted: the remainder keeps its <= u constraint from
    // the last solve, so the reported solution is feasible for every
    // recorded level, but the profile tail is unrefined.
    result.truncated = true;
    FT_LOG(kInfo) << "lexmin: round budget exhausted with "
                  << (k_total - num_fixed) << " rows unfixed";
  }

  result.status = SolveStatus::kOptimal;
  result.final_basis = std::move(basis);
  result.load.resize(k_total);
  for (std::size_t k = 0; k < k_total; ++k) {
    double load = 0.0;
    for (const RowEntry& e : loads[k].entries) {
      load += e.coeff * result.x[static_cast<std::size_t>(e.column)];
    }
    result.load[k] = load / loads[k].normalizer;
  }
  return result;
}

}  // namespace flowtime::lp
