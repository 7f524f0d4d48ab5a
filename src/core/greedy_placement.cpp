#include "core/greedy_placement.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::core {

namespace {

// Mirrors the LP formulation: a slot with (effectively) zero capacity is
// never attractive, but dividing by it must not produce inf/NaN keys.
constexpr double kTinyCapacity = 1e-9;
constexpr double kTol = 1e-9;

double normalized_key(const workload::ResourceVec& load,
                      const workload::ResourceVec& cap) {
  double key = 0.0;
  for (int r = 0; r < workload::kNumResources; ++r) {
    const double c = cap[r] > kTinyCapacity ? cap[r] : kTinyCapacity;
    key = std::max(key, load[r] / c);
  }
  return key;
}

}  // namespace

LpSchedule greedy_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot) {
  LpSchedule schedule;
  schedule.first_slot = first_slot;
  schedule.num_slots = static_cast<int>(capacity_per_slot.size());
  const int num_slots = schedule.num_slots;
  schedule.allocation.assign(
      jobs.size(),
      std::vector<workload::ResourceVec>(static_cast<std::size_t>(num_slots),
                                         workload::zeros()));
  schedule.normalized_load.assign(static_cast<std::size_t>(num_slots),
                                  workload::zeros());
  if (num_slots == 0) {
    // No horizon to place into; only vacuously solvable.
    schedule.status = jobs.empty() ? lp::SolveStatus::kOptimal
                                   : lp::SolveStatus::kInfeasible;
    return schedule;
  }
  schedule.status = lp::SolveStatus::kOptimal;

  // Earliest deadline first; release and uid break ties deterministically.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const LpJob& ja = jobs[a];
    const LpJob& jb = jobs[b];
    if (ja.deadline_slot != jb.deadline_slot) {
      return ja.deadline_slot < jb.deadline_slot;
    }
    if (ja.release_slot != jb.release_slot) {
      return ja.release_slot < jb.release_slot;
    }
    return ja.uid < jb.uid;
  });

  // Running resource-seconds packed into each slot.
  std::vector<workload::ResourceVec> load(static_cast<std::size_t>(num_slots),
                                          workload::zeros());
  std::vector<int> picked;  // scratch: candidate slot offsets, re-sorted

  for (const std::size_t j : order) {
    const LpJob& job = jobs[j];

    // Clip the window to the horizon; an impossible window (already past,
    // or entirely beyond the horizon) collapses to the nearest slot so the
    // job still gets the densest placement the horizon allows.
    int lo = job.release_slot - first_slot;
    int hi = job.deadline_slot - first_slot;
    lo = std::clamp(lo, 0, num_slots - 1);
    hi = std::clamp(hi, lo, num_slots - 1);
    const int window = hi - lo + 1;

    bool any_demand = false;
    for (int r = 0; r < workload::kNumResources; ++r) {
      any_demand = any_demand || job.demand[r] > kTol;
    }
    if (!any_demand) continue;
    // Minimum occupied slots, per the binding resource.
    const int n = std::min(min_slots(job.demand, job.width), window);

    // Water filling: occupy the n least-loaded window slots (ties toward
    // earlier slots), splitting the demand evenly across them. The width
    // cap only binds when the clipped window is shorter than `needed`; the
    // shortfall is simply what an impossible window cannot absorb.
    picked.resize(static_cast<std::size_t>(window));
    std::iota(picked.begin(), picked.end(), lo);
    std::stable_sort(picked.begin(), picked.end(), [&](int a, int b) {
      return normalized_key(load[static_cast<std::size_t>(a)],
                            capacity_per_slot[static_cast<std::size_t>(a)]) <
             normalized_key(load[static_cast<std::size_t>(b)],
                            capacity_per_slot[static_cast<std::size_t>(b)]);
    });
    workload::ResourceVec grant{};
    for (int r = 0; r < workload::kNumResources; ++r) {
      grant[r] = std::min(job.demand[r] / n, job.width[r]);
    }
    for (int i = 0; i < n; ++i) {
      const auto t = static_cast<std::size_t>(picked[static_cast<std::size_t>(i)]);
      schedule.allocation[j][t] = workload::add(schedule.allocation[j][t], grant);
      load[t] = workload::add(load[t], grant);
    }
  }

  for (int t = 0; t < num_slots; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    for (int r = 0; r < workload::kNumResources; ++r) {
      const double c = capacity_per_slot[ts][r] > kTinyCapacity
                           ? capacity_per_slot[ts][r]
                           : kTinyCapacity;
      schedule.normalized_load[ts][r] = load[ts][r] / c;
      schedule.max_normalized_load =
          std::max(schedule.max_normalized_load, schedule.normalized_load[ts][r]);
    }
  }
  schedule.capacity_exceeded = schedule.max_normalized_load > 1.0 + 1e-6;

  if (obs::enabled()) {
    obs::registry().counter("core.greedy_placements").add();
    obs::emit(obs::TraceEvent("greedy_placement")
                  .field("jobs", jobs.size())
                  .field("slots", num_slots)
                  .field("max_normalized_load", schedule.max_normalized_load)
                  .field("capacity_exceeded", schedule.capacity_exceeded));
  }
  return schedule;
}

}  // namespace flowtime::core
