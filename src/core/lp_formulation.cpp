#include "core/lp_formulation.h"

#include <algorithm>
#include <cmath>

#include "core/flow_placement.h"
#include "obs/metrics.h"

namespace flowtime::core {

namespace {

constexpr double kSlotTol = 1e-9;

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

int release_slot_of(double seconds, double slot_seconds) {
  return static_cast<int>(std::floor(seconds / slot_seconds + kSlotTol));
}

int deadline_slot_of(double seconds, double slot_seconds) {
  return static_cast<int>(std::ceil(seconds / slot_seconds - kSlotTol)) - 1;
}

int min_slots(const workload::ResourceVec& demand,
              const workload::ResourceVec& width) {
  int needed = 1;
  for (int r = 0; r < workload::kNumResources; ++r) {
    if (demand[r] > kSlotTol && width[r] > kSlotTol) {
      needed = std::max(
          needed, static_cast<int>(std::ceil(demand[r] / width[r] - kSlotTol)));
    }
  }
  return needed;
}

bool widen_to_min_slots(LpJob& job) {
  const int last = job.release_slot + min_slots(job.demand, job.width) - 1;
  if (job.deadline_slot >= last) return false;
  job.deadline_slot = last;
  return true;
}

LpSchedule solve_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, lp::SolveBudget* budget) {
  LpSchedule schedule =
      empty_schedule(jobs.size(), static_cast<int>(capacity_per_slot.size()),
                     first_slot);
  // One transportation problem per resource, each solved exactly by the
  // flow lexmin (core/flow_placement.h) in augmenting paths.
  for (int r = 0; r < workload::kNumResources; ++r) {
    const ResourceFlowLexmin flow = solve_resource_flow_lexmin(
        jobs, capacity_per_slot, first_slot, r, budget);
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

}  // namespace flowtime::core
