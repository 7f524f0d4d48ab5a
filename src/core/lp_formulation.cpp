#include "core/lp_formulation.h"

#include <algorithm>

#include "core/flow_placement.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace flowtime::core {

namespace {

constexpr double kTinyCapacity = 1e-9;

// FNV-1a over the model *shape*: column/row counts and per-row sparsity of
// the base problem plus the per-load entry layout. Two problems with the
// same fingerprint produce lexmin working problems of identical shape, so
// a basis from one is a valid warm-start hint for the other (data may
// differ; the solver repairs that). Collisions are harmless — the simplex
// engine re-validates dimensions and falls back to a cold solve.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL;
  return h * 0x100000001b3ULL;
}

std::uint64_t shape_fingerprint(const lp::LpProblem& base,
                                const std::vector<lp::LoadRow>& loads) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::uint64_t>(base.num_columns()));
  h = mix(h, static_cast<std::uint64_t>(base.num_rows()));
  h = mix(h, loads.size());
  for (int i = 0; i < base.num_rows(); ++i) {
    const auto& entries = base.row_entries(i);
    h = mix(h, entries.size());
    if (!entries.empty()) {
      h = mix(h, static_cast<std::uint64_t>(entries.front().column));
      h = mix(h, static_cast<std::uint64_t>(entries.back().column));
    }
  }
  for (const lp::LoadRow& load : loads) {
    h = mix(h, load.entries.size());
    if (!load.entries.empty()) {
      h = mix(h, static_cast<std::uint64_t>(load.entries.front().column));
      h = mix(h, static_cast<std::uint64_t>(load.entries.back().column));
    }
  }
  return h;
}

// An ok, all-zero schedule over the horizon, ready to be filled in.
LpSchedule empty_schedule(std::size_t jobs, int num_slots, int first_slot) {
  LpSchedule schedule;
  schedule.status = lp::SolveStatus::kOptimal;
  schedule.first_slot = first_slot;
  schedule.num_slots = num_slots;
  schedule.allocation.assign(
      jobs, std::vector<workload::ResourceVec>(
                static_cast<std::size_t>(num_slots)));
  schedule.normalized_load.assign(static_cast<std::size_t>(num_slots),
                                  workload::ResourceVec{});
  return schedule;
}

}  // namespace

LpSchedule solve_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options) {
  if (options.coupled_resources) {
    return solve_placement_coupled(jobs, capacity_per_slot, first_slot,
                                   options);
  }
  LpSchedule schedule =
      empty_schedule(jobs.size(), static_cast<int>(capacity_per_slot.size()),
                     first_slot);
  // One transportation problem per resource, each solved exactly by the
  // flow lexmin (core/flow_placement.h) in augmenting paths.
  for (int r = 0; r < workload::kNumResources; ++r) {
    const ResourceFlowLexmin flow = solve_resource_flow_lexmin(
        jobs, capacity_per_slot, first_slot, r,
        options.lexmin.lp_options.budget, options.integral_extraction);
    if (!flow.any_demand) continue;
    schedule.flow_fast_path = true;
    schedule.pivots += flow.augmentations;
    schedule.lexmin_rounds = std::max(schedule.lexmin_rounds,
                                      static_cast<int>(flow.levels.size()));
    schedule.lexmin_truncated = schedule.lexmin_truncated || flow.truncated;
    schedule.budget_exhausted =
        schedule.budget_exhausted || flow.budget_exhausted;
    if (!flow.ok()) {
      schedule.status = flow.status;
      return schedule;
    }
    schedule.max_normalized_load =
        std::max(schedule.max_normalized_load, flow.max_level());
    if (flow.max_level() > 1.0 + 1e-6) schedule.capacity_exceeded = true;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (int t = 0; t < schedule.num_slots; ++t) {
        schedule.allocation[j][static_cast<std::size_t>(t)][r] =
            flow.allocation[j][static_cast<std::size_t>(t)];
      }
    }
    for (int t = 0; t < schedule.num_slots; ++t) {
      schedule.normalized_load[static_cast<std::size_t>(t)][r] =
          flow.load[static_cast<std::size_t>(t)];
    }
    if (obs::enabled()) {
      obs::registry().counter("lp.flow_fast_path.solves").add();
    }
  }
  return schedule;
}

LpSchedule solve_placement_coupled(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, const LpScheduleOptions& options) {
  LpSchedule schedule =
      empty_schedule(jobs.size(), static_cast<int>(capacity_per_slot.size()),
                     first_slot);
  const int last_slot = first_slot + schedule.num_slots - 1;

  // One f column per (job, slot in window), measured in the job's dominant
  // resource; every other resource scales by the job's bundle ratio.
  lp::LpProblem base;
  struct JobColumns {
    int first_column = -1;
    int begin = 0;
    int end = -1;
    int reference = -1;               // dominant resource index
    workload::ResourceVec ratio{};    // per-resource multiplier of f
  };
  std::vector<JobColumns> map(jobs.size());
  std::vector<lp::LoadRow> loads(
      static_cast<std::size_t>(schedule.num_slots) *
      workload::kNumResources);
  for (int t = 0; t < schedule.num_slots; ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      auto& load = loads[static_cast<std::size_t>(t) *
                             workload::kNumResources +
                         r];
      load.normalizer = std::max(
          capacity_per_slot[static_cast<std::size_t>(t)][r], kTinyCapacity);
      load.name = "slot" + std::to_string(first_slot + t) + "_r" +
                  std::to_string(r);
    }
  }

  bool any_columns = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const LpJob& job = jobs[j];
    JobColumns& columns = map[j];
    // Dominant resource: largest demand relative to width (they are
    // proportional for gang jobs, so any nonzero one works).
    for (int r = 0; r < workload::kNumResources; ++r) {
      if (job.demand[r] > 0.0 &&
          (columns.reference < 0 ||
           job.demand[r] > job.demand[columns.reference])) {
        columns.reference = r;
      }
    }
    if (columns.reference < 0) continue;  // nothing to place
    const double ref_demand = job.demand[columns.reference];
    for (int r = 0; r < workload::kNumResources; ++r) {
      columns.ratio[r] = job.demand[r] / ref_demand;
    }
    const int begin = std::max(job.release_slot, first_slot) - first_slot;
    const int end = std::min(job.deadline_slot, last_slot) - first_slot;
    if (begin > end) {
      FT_LOG(kInfo) << "coupled placement: job uid=" << job.uid
                    << " has an empty window";
      schedule.status = lp::SolveStatus::kInfeasible;
      return schedule;
    }
    columns.first_column = base.num_columns();
    columns.begin = begin;
    columns.end = end;
    // Width bound in reference units: min over resources of width/ratio.
    double f_width = job.width[columns.reference];
    for (int r = 0; r < workload::kNumResources; ++r) {
      if (columns.ratio[r] > 0.0) {
        f_width = std::min(f_width, job.width[r] / columns.ratio[r]);
      }
    }
    std::vector<lp::RowEntry> demand_row;
    for (int t = begin; t <= end; ++t) {
      const int col = base.add_column(0.0, 0.0, f_width);
      demand_row.push_back(lp::RowEntry{col, 1.0});
      for (int r = 0; r < workload::kNumResources; ++r) {
        if (columns.ratio[r] > 0.0) {
          loads[static_cast<std::size_t>(t) * workload::kNumResources + r]
              .entries.push_back(lp::RowEntry{col, columns.ratio[r]});
        }
      }
      any_columns = true;
    }
    base.add_row(lp::RowSense::kEqual, ref_demand, std::move(demand_row));
  }
  if (!any_columns) return schedule;

  if (options.integral_extraction) {
    FT_LOG(kWarn) << "integral extraction is not supported for the coupled "
                     "formulation (the matrix is not TU); skipping";
  }
  // Warm start through the cache: pass the cached basis when the shape
  // fingerprint matches, and store the final basis back for the next
  // same-shaped solve.
  PlacementWarmCache* cache = options.warm_cache;
  const lp::Basis* warm = nullptr;
  std::uint64_t fingerprint = 0;
  if (cache != nullptr) {
    fingerprint = shape_fingerprint(base, loads);
    if (cache->fingerprint == fingerprint && !cache->basis.empty()) {
      warm = &cache->basis;
    }
  }
  const lp::LexMinMaxResult lex =
      lp::LexMinMaxSolver(options.lexmin).solve(base, loads, warm);
  if (cache != nullptr) {
    cache->fingerprint = fingerprint;
    cache->basis = lex.final_basis;
  }
  schedule.pivots = lex.pivots;
  schedule.lexmin_rounds = lex.rounds;
  schedule.lexmin_truncated = lex.truncated;
  schedule.budget_exhausted = lex.budget_exhausted;
  if (!lex.optimal()) {
    schedule.status = lex.status;
    return schedule;
  }
  schedule.max_normalized_load = lex.max_level();
  schedule.capacity_exceeded = lex.max_level() > 1.0 + 1e-6;

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobColumns& columns = map[j];
    if (columns.first_column < 0) continue;
    for (int t = columns.begin; t <= columns.end; ++t) {
      const double f = lex.x[static_cast<std::size_t>(
          columns.first_column + (t - columns.begin))];
      for (int r = 0; r < workload::kNumResources; ++r) {
        schedule.allocation[j][static_cast<std::size_t>(t)][r] =
            f * columns.ratio[r];
      }
    }
  }
  for (int t = 0; t < schedule.num_slots; ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      schedule.normalized_load[static_cast<std::size_t>(t)][r] =
          lex.load[static_cast<std::size_t>(t) * workload::kNumResources +
                   r];
    }
  }
  return schedule;
}

}  // namespace flowtime::core
