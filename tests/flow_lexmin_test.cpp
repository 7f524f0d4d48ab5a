// Exactness tests for the flow lexmin (core/flow_placement.h), the
// per-resource placement solver: a differential against the simplex
// dual-test lexmin (lp::solve_placement_simplex, on each resource's
// transportation LP) on the whole sorted level vector, the
// exchange-condition certificate of lexicographic optimality, feasibility
// of every plan, the elementary-interval network and its earliest-deadline
// split back to slots, and how solver budgets cut a flow solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/flow_placement.h"
#include "core/flowtime_scheduler.h"
#include "core/lp_formulation.h"
#include "lp/placement_simplex.h"
#include "lp/solve_budget.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "util/rng.h"
#include "workload/scenario_io.h"

namespace flowtime::core {
namespace {

using workload::ResourceVec;

struct Instance {
  std::vector<LpJob> jobs;
  std::vector<ResourceVec> caps;
  int first_slot = 0;
};

// Seeded random placement. Across seeds: heterogeneous slot capacities,
// widths that bind (a job may need its full width in every slot of its
// window), uncovered slots (every fourth seed keeps the last slot out of
// all windows, and random windows leave gaps), a resource nobody demands
// (every third seed), and a horizon that starts after some releases
// (odd seeds have first_slot > 0, so windows get clipped).
Instance random_instance(int seed) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
  Instance inst;
  const int slots = static_cast<int>(rng.uniform_int(4, 14));
  inst.first_slot = seed % 2 == 1 ? static_cast<int>(rng.uniform_int(1, 5))
                                  : 0;
  const int last = inst.first_slot + slots - 1;
  const int last_covered = seed % 4 == 0 ? last - 1 : last;
  const bool idle_memory = seed % 3 == 0;
  for (int t = 0; t < slots; ++t) {
    inst.caps.push_back(ResourceVec{rng.uniform_real(50.0, 200.0),
                                    rng.uniform_real(100.0, 400.0)});
  }
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int i = 0; i < n; ++i) {
    LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(
        rng.uniform_int(inst.first_slot - 2, last_covered));
    job.deadline_slot = std::min(
        last_covered,
        std::max(inst.first_slot, job.release_slot) +
            static_cast<int>(rng.uniform_int(0, slots / 2)));
    const int window = job.deadline_slot -
                       std::max(job.release_slot, inst.first_slot) + 1;
    for (int r = 0; r < workload::kNumResources; ++r) {
      job.width[r] = rng.uniform_real(10.0, 120.0);
      // Fill 1 makes the width bind in every slot of the window.
      const double fill =
          rng.bernoulli(0.25) ? 1.0 : rng.uniform_real(0.2, 0.95);
      job.demand[r] = fill * job.width[r] * window;
    }
    if (idle_memory) job.demand[workload::kMemory] = 0.0;
    inst.jobs.push_back(job);
  }
  return inst;
}

// Seeded placement whose slots merge into elementary intervals: 20-60
// slots under one capacity (every third seed) or up to four constant
// pieces, and 2-8 jobs with windows of any length, so long runs of slots
// share a capacity and a set of jobs. Odd seeds clip windows at a
// first_slot > 0; every fourth seed leaves memory idle.
Instance interval_instance(int seed) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 31);
  Instance inst;
  const int slots = static_cast<int>(rng.uniform_int(20, 60));
  inst.first_slot = seed % 2 == 1 ? static_cast<int>(rng.uniform_int(1, 5))
                                  : 0;
  const int last = inst.first_slot + slots - 1;
  const int pieces =
      seed % 3 == 0 ? 1 : static_cast<int>(rng.uniform_int(2, 4));
  std::vector<bool> new_piece(static_cast<std::size_t>(slots), false);
  new_piece[0] = true;
  for (int p = 1; p < pieces; ++p) {
    new_piece[static_cast<std::size_t>(rng.uniform_int(1, slots - 1))] = true;
  }
  ResourceVec cap{};
  for (int t = 0; t < slots; ++t) {
    if (new_piece[static_cast<std::size_t>(t)]) {
      cap = ResourceVec{rng.uniform_real(50.0, 200.0),
                        rng.uniform_real(100.0, 400.0)};
    }
    inst.caps.push_back(cap);
  }
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int i = 0; i < n; ++i) {
    LpJob job;
    job.uid = i;
    job.release_slot =
        static_cast<int>(rng.uniform_int(inst.first_slot - 3, last));
    job.deadline_slot = std::min(
        last, std::max(inst.first_slot, job.release_slot) +
                  static_cast<int>(rng.uniform_int(0, slots - 1)));
    const int window = job.deadline_slot -
                       std::max(job.release_slot, inst.first_slot) + 1;
    for (int r = 0; r < workload::kNumResources; ++r) {
      job.width[r] = rng.uniform_real(10.0, 120.0);
      const double fill =
          rng.bernoulli(0.25) ? 1.0 : rng.uniform_real(0.2, 0.95);
      job.demand[r] = fill * job.width[r] * window;
    }
    if (seed % 4 == 0) job.demand[workload::kMemory] = 0.0;
    inst.jobs.push_back(job);
  }
  return inst;
}

// Where resource r's network cuts the horizon: cuts[t] is true when slot t
// (relative) starts a new elementary interval — a window of a job with
// demand starts there, one ends just before it, or the capacity changes.
std::vector<bool> interval_starts(const Instance& inst, int r) {
  const int slots = static_cast<int>(inst.caps.size());
  const int last = inst.first_slot + slots - 1;
  std::vector<bool> cuts(static_cast<std::size_t>(slots), false);
  cuts[0] = true;
  for (const LpJob& job : inst.jobs) {
    if (job.demand[r] == 0.0) continue;
    const int begin = std::max(job.release_slot, inst.first_slot);
    const int end = std::min(job.deadline_slot, last);
    cuts[static_cast<std::size_t>(begin - inst.first_slot)] = true;
    if (end < last) {
      cuts[static_cast<std::size_t>(end + 1 - inst.first_slot)] = true;
    }
  }
  for (int t = 1; t < slots; ++t) {
    if (inst.caps[static_cast<std::size_t>(t)][r] !=
        inst.caps[static_cast<std::size_t>(t - 1)][r]) {
      cuts[static_cast<std::size_t>(t)] = true;
    }
  }
  return cuts;
}

using test::sorted_loads;

LpSchedule solve_flow(const Instance& inst,
                      lp::SolveBudget* budget = nullptr) {
  return solve_placement(inst.jobs, inst.caps, inst.first_slot, budget);
}

LpSchedule solve_dual_test(const Instance& inst) {
  lp::LexMinMaxOptions options;
  options.max_rounds = 1000;
  return lp::solve_placement_simplex(inst.jobs, inst.caps, inst.first_slot,
                                     options);
}

// The three checks every instance family runs.

void expect_level_vector_matches_dual_test(const Instance& inst) {
  const LpSchedule flow = solve_flow(inst);
  const LpSchedule dual = solve_dual_test(inst);
  ASSERT_TRUE(flow.ok()) << lp::to_string(flow.status);
  ASSERT_TRUE(dual.ok()) << lp::to_string(dual.status);
  EXPECT_TRUE(flow.flow_fast_path);
  EXPECT_FALSE(dual.lexmin_truncated);
  EXPECT_FALSE(flow.lexmin_truncated);
  EXPECT_EQ(flow.capacity_exceeded, dual.capacity_exceeded);
  for (int r = 0; r < workload::kNumResources; ++r) {
    const std::vector<double> a = sorted_loads(flow, r);
    const std::vector<double> b = sorted_loads(dual, r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-6)
          << "resource " << r << " coordinate " << k;
    }
  }
}

// The exchange condition that characterizes the lexicographically optimal
// base: if some chain of jobs can move load from slot s to slot t (s <- j1
// -> ... -> t in the residual graph: each job holds load on the slot before
// it and has width left on the slot after it), then s may not sit above t.
void expect_no_residual_path_lowers_the_profile(const Instance& inst) {
  const LpSchedule flow = solve_flow(inst);
  ASSERT_TRUE(flow.ok());
  const int slots = static_cast<int>(inst.caps.size());
  const int last = inst.first_slot + slots - 1;
  constexpr double kMove = 1e-6;  // resource-seconds that count as movable
  for (int r = 0; r < workload::kNumResources; ++r) {
    for (int s = 0; s < slots; ++s) {
      std::vector<bool> seen(static_cast<std::size_t>(slots), false);
      std::vector<int> frontier = {s};
      seen[static_cast<std::size_t>(s)] = true;
      while (!frontier.empty()) {
        const int from = frontier.back();
        frontier.pop_back();
        for (std::size_t j = 0; j < inst.jobs.size(); ++j) {
          const LpJob& job = inst.jobs[j];
          if (flow.allocation[j][static_cast<std::size_t>(from)][r] <=
              kMove) {
            continue;  // job j holds nothing on `from` to move away
          }
          const int begin = std::max(job.release_slot, inst.first_slot);
          const int end = std::min(job.deadline_slot, last);
          for (int abs = begin; abs <= end; ++abs) {
            const int to = abs - inst.first_slot;
            if (seen[static_cast<std::size_t>(to)] ||
                flow.allocation[j][static_cast<std::size_t>(to)][r] >=
                    job.width[r] - kMove) {
              continue;
            }
            seen[static_cast<std::size_t>(to)] = true;
            frontier.push_back(to);
            EXPECT_LE(flow.normalized_load[static_cast<std::size_t>(s)][r],
                      flow.normalized_load[static_cast<std::size_t>(to)][r] +
                          1e-6)
                << "resource " << r << ": load can move from slot " << s
                << " to slot " << to;
          }
        }
      }
    }
  }
}

void expect_every_demand_placed_inside_its_window_and_width(
    const Instance& inst) {
  const LpSchedule flow = solve_flow(inst);
  ASSERT_TRUE(flow.ok());
  const int slots = static_cast<int>(inst.caps.size());
  for (std::size_t j = 0; j < inst.jobs.size(); ++j) {
    const LpJob& job = inst.jobs[j];
    for (int r = 0; r < workload::kNumResources; ++r) {
      double placed = 0.0;
      for (int t = 0; t < slots; ++t) {
        const double x = flow.allocation[j][static_cast<std::size_t>(t)][r];
        const int abs = inst.first_slot + t;
        EXPECT_GE(x, -1e-9);
        EXPECT_LE(x, job.width[r] + 1e-6) << "job " << j << " slot " << abs;
        if (abs < job.release_slot || abs > job.deadline_slot) {
          EXPECT_EQ(x, 0.0) << "job " << j << " outside window at " << abs;
        }
        placed += x;
      }
      EXPECT_NEAR(placed, job.demand[r], 1e-6 * std::max(1.0, job.demand[r]))
          << "job " << j << " resource " << r;
    }
  }
  for (int t = 0; t < slots; ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      double used = 0.0;
      for (std::size_t j = 0; j < inst.jobs.size(); ++j) {
        used += flow.allocation[j][static_cast<std::size_t>(t)][r];
      }
      EXPECT_NEAR(used / inst.caps[static_cast<std::size_t>(t)][r],
                  flow.normalized_load[static_cast<std::size_t>(t)][r], 1e-9);
      EXPECT_LE(flow.normalized_load[static_cast<std::size_t>(t)][r],
                flow.max_normalized_load + 1e-9);
    }
  }
}

class FlowLexminProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowLexminProperty, LevelVectorMatchesDualTestLexmin) {
  expect_level_vector_matches_dual_test(random_instance(GetParam()));
}

TEST_P(FlowLexminProperty, NoResidualPathLowersTheProfile) {
  expect_no_residual_path_lowers_the_profile(random_instance(GetParam()));
}

TEST_P(FlowLexminProperty, PlanPlacesEveryDemandInsideItsWindowAndWidth) {
  expect_every_demand_placed_inside_its_window_and_width(
      random_instance(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowLexminProperty, ::testing::Range(1, 61));

// The same checks on instances whose slots merge into elementary intervals
// (random_instance draws a capacity per slot, so none of its slots merge).
class FlowLexminIntervalProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowLexminIntervalProperty, LevelVectorMatchesDualTestLexmin) {
  expect_level_vector_matches_dual_test(interval_instance(GetParam()));
}

TEST_P(FlowLexminIntervalProperty, NoResidualPathLowersTheProfile) {
  expect_no_residual_path_lowers_the_profile(interval_instance(GetParam()));
}

TEST_P(FlowLexminIntervalProperty,
       PlanPlacesEveryDemandInsideItsWindowAndWidth) {
  expect_every_demand_placed_inside_its_window_and_width(
      interval_instance(GetParam()));
}

TEST_P(FlowLexminIntervalProperty, EverySlotOfAnIntervalCarriesTheSameLoad) {
  const Instance inst = interval_instance(GetParam());
  const LpSchedule flow = solve_flow(inst);
  ASSERT_TRUE(flow.ok());
  const int slots = static_cast<int>(inst.caps.size());
  int merged = 0;
  for (int r = 0; r < workload::kNumResources; ++r) {
    const std::vector<bool> starts = interval_starts(inst, r);
    for (int t = 1; t < slots; ++t) {
      if (starts[static_cast<std::size_t>(t)]) continue;
      ++merged;
      EXPECT_NEAR(flow.normalized_load[static_cast<std::size_t>(t)][r],
                  flow.normalized_load[static_cast<std::size_t>(t - 1)][r],
                  1e-9)
          << "resource " << r << ": slots " << t - 1 << " and " << t
          << " share an interval";
    }
  }
  EXPECT_GT(merged, 0) << "no two slots merged; the family misses its aim";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowLexminIntervalProperty,
                         ::testing::Range(1, 41));

// Two jobs that force two levels: one pinned to slot 0, one spread over
// slots 0-3.
std::vector<LpJob> two_level_jobs() {
  LpJob pin;
  pin.demand = ResourceVec{80.0, 0.0};
  pin.width = ResourceVec{100.0, 0.0};
  LpJob spread;
  spread.deadline_slot = 3;
  spread.demand = ResourceVec{120.0, 0.0};
  spread.width = ResourceVec{100.0, 0.0};
  return {pin, spread};
}

std::vector<ResourceVec> flat_caps(int slots) {
  return std::vector<ResourceVec>(static_cast<std::size_t>(slots),
                                  ResourceVec{100.0, 100.0});
}

TEST(FlowLexminIntervals, ArcsGrowWithJobsNotSlots) {
  // Three windows on 300 uniform slots cut the horizon at 0, 50, 100, 150,
  // 250 and 300: five intervals and 5 + 2 + 2 arcs, within J * (2J + 1).
  std::vector<LpJob> jobs(3);
  const int windows[3][2] = {{0, 299}, {50, 149}, {100, 249}};
  for (int j = 0; j < 3; ++j) {
    jobs[static_cast<std::size_t>(j)].uid = j;
    jobs[static_cast<std::size_t>(j)].release_slot = windows[j][0];
    jobs[static_cast<std::size_t>(j)].deadline_slot = windows[j][1];
    jobs[static_cast<std::size_t>(j)].demand = ResourceVec{2000.0, 0.0};
    jobs[static_cast<std::size_t>(j)].width = ResourceVec{40.0, 0.0};
  }
  const ResourceFlowLexmin r =
      solve_resource_flow_lexmin(jobs, flat_caps(300), 0, workload::kCpu);
  ASSERT_TRUE(r.ok()) << lp::to_string(r.status);
  EXPECT_EQ(r.jobs, 3);
  EXPECT_LE(r.edges, 3 * (2 * 3 + 1));
  EXPECT_EQ(r.edges, 9);
  EXPECT_EQ(r.intervals, 5);
  ASSERT_EQ(r.load.size(), 300u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    double placed = 0.0;
    for (double x : r.allocation[j]) placed += x;
    EXPECT_NEAR(placed, 2000.0, 1e-9) << "job " << j;
  }
}

TEST(FlowLexminIntervals, SplitRunsEarliestDeadlineFirstAtEqualLoad) {
  // Both jobs cover the whole 4-slot horizon (b's deadline is clipped), so
  // the network has one interval carrying 120 + 200 = 320: 80 per slot.
  // Slot 0: neither job must run yet (a fits 120 in 3 * 60, b 200 in
  // 3 * 80); a, the earlier deadline, takes its width 60 and b the other
  // 20. Slot 1: b must run 180 - 2 * 80 = 20; a takes the remaining 60.
  // Slots 2 and 3: b must run 80 each.
  LpJob a;
  a.uid = 0;
  a.deadline_slot = 3;
  a.demand = ResourceVec{120.0, 0.0};
  a.width = ResourceVec{60.0, 0.0};
  LpJob b;
  b.uid = 1;
  b.deadline_slot = 9;
  b.demand = ResourceVec{200.0, 0.0};
  b.width = ResourceVec{80.0, 0.0};
  const ResourceFlowLexmin r =
      solve_resource_flow_lexmin({b, a}, flat_caps(4), 0, workload::kCpu);
  ASSERT_TRUE(r.ok()) << lp::to_string(r.status);
  EXPECT_EQ(r.intervals, 1);
  EXPECT_EQ(r.edges, 2);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_NEAR(r.max_level(), 0.8, 1e-12);
  const std::vector<double> want_a = {60.0, 60.0, 0.0, 0.0};
  const std::vector<double> want_b = {20.0, 20.0, 80.0, 80.0};
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_NEAR(r.allocation[1][t], want_a[t], 1e-9) << "a, slot " << t;
    EXPECT_NEAR(r.allocation[0][t], want_b[t], 1e-9) << "b, slot " << t;
    EXPECT_NEAR(r.load[t], 0.8, 1e-12) << "slot " << t;
  }
}

TEST(FlowLexminBudget, OneUnitCapStopsBeforeTheFirstLevel) {
  lp::SolveBudget budget;
  budget.set_pivot_cap(1);
  const LpSchedule s =
      solve_placement(two_level_jobs(), flat_caps(4), 0, &budget);
  EXPECT_EQ(s.status, lp::SolveStatus::kIterationLimit);
  EXPECT_TRUE(s.budget_exhausted);
  EXPECT_TRUE(s.flow_fast_path);
  EXPECT_EQ(budget.pivots_used(), 1);
}

TEST(FlowLexminBudget, PresetCancelTokenTimesOut) {
  std::atomic<bool> cancel{true};
  lp::SolveBudget budget;
  budget.set_cancel_token(&cancel);
  const LpSchedule s =
      solve_placement(two_level_jobs(), flat_caps(4), 0, &budget);
  EXPECT_EQ(s.status, lp::SolveStatus::kTimeout);
  EXPECT_TRUE(s.budget_exhausted);
  EXPECT_EQ(s.pivots, 0) << "no path may be searched once cancelled";
}

TEST(FlowLexminBudget, HugeWallBudgetGivesTheIdenticalPlan) {
  const Instance inst = random_instance(7);
  const LpSchedule unlimited = solve_flow(inst);
  lp::SolveBudget budget;
  budget.set_wall_clock_ms(1e9);
  const LpSchedule bounded = solve_flow(inst, &budget);
  ASSERT_TRUE(unlimited.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_FALSE(bounded.budget_exhausted);
  EXPECT_EQ(bounded.pivots, unlimited.pivots);
  EXPECT_EQ(bounded.lexmin_rounds, unlimited.lexmin_rounds);
  EXPECT_EQ(bounded.allocation, unlimited.allocation);
  EXPECT_EQ(bounded.normalized_load, unlimited.normalized_load);
}

TEST(FlowLexminBudget, CutAfterTheFirstLevelReturnsItsFlowTruncated) {
  const std::vector<LpJob> jobs = two_level_jobs();
  const auto caps = flat_caps(4);
  const ResourceFlowLexmin full =
      solve_resource_flow_lexmin(jobs, caps, 0, workload::kCpu);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.levels.size(), 2u);
  // The first level alone is the same computation as the full solve's
  // first level; one more path lets the second level start, then cuts it.
  const ResourceFlowLexmin first =
      solve_resource_flow_level(jobs, caps, 0, workload::kCpu);
  lp::SolveBudget budget;
  budget.set_pivot_cap(first.augmentations + 1);
  const ResourceFlowLexmin cut =
      solve_resource_flow_lexmin(jobs, caps, 0, workload::kCpu, &budget);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut.truncated);
  EXPECT_TRUE(cut.budget_exhausted);
  ASSERT_EQ(cut.levels.size(), 1u);
  EXPECT_NEAR(cut.max_level(), full.max_level(), 1e-12);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    double placed = 0.0;
    for (double x : cut.allocation[j]) placed += x;
    EXPECT_NEAR(placed, jobs[j].demand[workload::kCpu], 1e-9);
  }
  for (double load : cut.load) EXPECT_LE(load, cut.max_level() + 1e-12);
}

TEST(FlowLexmin, WidthLimitedDemandIsInfeasible) {
  LpJob job;
  job.deadline_slot = 2;
  job.demand = ResourceVec{100.0, 0.0};
  job.width = ResourceVec{10.0, 0.0};  // at most 30 in three slots
  const ResourceFlowLexmin r =
      solve_resource_flow_lexmin({job}, flat_caps(3), 0, workload::kCpu);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
  const LpSchedule s = solve_placement({job}, flat_caps(3), 0);
  EXPECT_EQ(s.status, lp::SolveStatus::kInfeasible);
}

TEST(FlowLexmin, LevelsDescendAndCountAsRounds) {
  const LpSchedule s = solve_placement(two_level_jobs(), flat_caps(4), 0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.lexmin_rounds, 2);
  // Slot 0 holds the pinned 80 alone; 120 spreads over slots 1-3.
  EXPECT_NEAR(s.normalized_load[0][workload::kCpu], 0.8, 1e-12);
  for (int t = 1; t < 4; ++t) {
    EXPECT_NEAR(s.normalized_load[static_cast<std::size_t>(t)][workload::kCpu],
                0.4, 1e-12);
  }
}

TEST(FlowLexmin, EveryReplanWithPlannedJobsTakesTheFlowPath) {
  // The scheduler's default configuration (6 simplex rounds) no longer
  // decides the engine: every replan that plans jobs runs the flow lexmin,
  // refines every level, and is never truncated.
  constexpr const char* kScenario = R"(
cluster cores=100 mem_gb=256 slot_seconds=10
workflow id=0 name=etl start=0 deadline=1800
job node=0 name=extract tasks=20 runtime=60 cores=1 mem=2
job node=1 name=clean tasks=40 runtime=45 cores=1 mem=2
job node=2 name=report tasks=10 runtime=30 cores=1 mem=2
edge 0 1
edge 1 2
end
workflow id=1 name=late start=300 deadline=1500
job node=0 name=scan tasks=30 runtime=90 cores=1 mem=3
job node=1 name=merge tasks=10 runtime=60 cores=2 mem=2
edge 0 1
end
adhoc id=0 arrival=120 tasks=8 runtime=30 cores=1 mem=1
)";
  workload::ParseError error;
  const auto parsed = workload::parse_scenario(kScenario, &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  sim::SimConfig config;
  config.cluster = *parsed->cluster;
  FlowTimeConfig ft;
  ft.cluster = config.cluster;
  FlowTimeScheduler scheduler(ft);
  const sim::SimResult result =
      sim::Simulator(config).run(parsed->scenario, scheduler);
  EXPECT_TRUE(result.all_completed);
  int planned = 0;
  for (const ReplanRecord& record : scheduler.replan_log()) {
    EXPECT_EQ(record.flow_fast_path, record.planned_jobs > 0)
        << "slot " << record.slot;
    EXPECT_FALSE(record.lexmin_truncated) << "slot " << record.slot;
    EXPECT_EQ(record.degrade_rung, 0) << "slot " << record.slot;
    if (record.planned_jobs > 0) ++planned;
  }
  EXPECT_GE(planned, 2);
  EXPECT_EQ(scheduler.truncated_replans(), 0);
}

}  // namespace
}  // namespace flowtime::core
