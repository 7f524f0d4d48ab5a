#include "lp/placement_simplex.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace flowtime::lp {

core::LpSchedule solve_placement_simplex(
    const std::vector<core::LpJob>& jobs,
    const std::vector<workload::ResourceVec>& caps, int first_slot,
    const LexMinMaxOptions& options, ResourceBases* bases) {
  const int num_slots = static_cast<int>(caps.size());
  core::LpSchedule merged;
  merged.status = SolveStatus::kOptimal;
  merged.first_slot = first_slot;
  merged.num_slots = num_slots;
  merged.allocation.assign(jobs.size(),
                           std::vector<workload::ResourceVec>(caps.size()));
  merged.normalized_load.assign(caps.size(), workload::ResourceVec{});
  for (int r = 0; r < workload::kNumResources; ++r) {
    LpProblem base;
    std::vector<LoadRow> loads(caps.size());
    for (std::size_t t = 0; t < caps.size(); ++t) {
      loads[t].normalizer = std::max(caps[t][r], 1e-9);
    }
    // Each job's columns: one per slot of its clipped window [begin, end];
    // first = -1 for a job with no demand in r.
    struct Columns {
      int first = -1;
      int begin = 0;
      int end = -1;
    };
    std::vector<Columns> columns(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const core::LpJob& job = jobs[j];
      if (!(job.demand[r] > 0.0)) continue;
      Columns& c = columns[j];
      c.begin = std::max(job.release_slot, first_slot) - first_slot;
      c.end =
          std::min(job.deadline_slot, first_slot + num_slots - 1) - first_slot;
      if (c.begin > c.end) {
        merged.status = SolveStatus::kInfeasible;  // demand with no slot
        return merged;
      }
      c.first = base.num_columns();
      std::vector<RowEntry> demand_row;
      for (int t = c.begin; t <= c.end; ++t) {
        const int col = base.add_column(0.0, 0.0, job.width[r]);
        demand_row.push_back(RowEntry{col, 1.0});
        loads[static_cast<std::size_t>(t)].entries.push_back(
            RowEntry{col, 1.0});
      }
      base.add_row(RowSense::kEqual, job.demand[r], std::move(demand_row));
    }
    if (base.num_columns() == 0) continue;  // nothing to place in r

    const Basis* warm = bases != nullptr ? &(*bases)[r] : nullptr;
    LexMinMaxResult lex = LexMinMaxSolver(options).solve(base, loads, warm);
    if (bases != nullptr) (*bases)[r] = std::move(lex.final_basis);
    merged.pivots += lex.pivots;
    merged.lexmin_rounds = std::max(merged.lexmin_rounds, lex.rounds);
    merged.lexmin_truncated = merged.lexmin_truncated || lex.truncated;
    merged.budget_exhausted = merged.budget_exhausted || lex.budget_exhausted;
    if (!lex.optimal()) {
      merged.status = lex.status;
      return merged;
    }
    merged.max_normalized_load =
        std::max(merged.max_normalized_load, lex.max_level());
    if (lex.max_level() > 1.0 + 1e-6) merged.capacity_exceeded = true;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Columns& c = columns[j];
      if (c.first < 0) continue;
      for (int t = c.begin; t <= c.end; ++t) {
        merged.allocation[j][static_cast<std::size_t>(t)][r] =
            lex.x[static_cast<std::size_t>(c.first + t - c.begin)];
      }
    }
    for (std::size_t t = 0; t < caps.size(); ++t) {
      merged.normalized_load[t][r] = lex.load[t];
    }
  }
  return merged;
}

}  // namespace flowtime::lp
