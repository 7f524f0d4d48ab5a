// Differential tests between the two lexmin solvers of the placement LP:
// the flow lexmin (core/flow_placement.h), which solve_placement runs on
// every resource, and the test-only sparse revised simplex (lp/simplex.h)
// on each resource's transportation LP (lp::solve_placement_simplex). Both
// are exact on these instances, but the optimal vertex is not unique, so
// what is pinned on generated job sets is: identical statuses and
// infeasibility diagnoses, the same peak level, the same sorted level
// vector per resource, and plans that are each feasible, demand-complete,
// and width/window-respecting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/placement_simplex.h"
#include "lp/solve_budget.h"
#include "test_support.h"
#include "util/rng.h"

namespace flowtime::core {
namespace {

using workload::ResourceVec;

std::vector<ResourceVec> uniform_caps(int slots, double cpu, double mem) {
  return std::vector<ResourceVec>(static_cast<std::size_t>(slots),
                                  ResourceVec{cpu, mem});
}

std::vector<LpJob> random_jobs(int count, int horizon, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LpJob> jobs;
  for (int i = 0; i < count; ++i) {
    LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(rng.uniform_int(0, horizon - 2));
    job.deadline_slot =
        job.release_slot + static_cast<int>(rng.uniform_int(1, 6));
    job.demand = ResourceVec{rng.uniform_real(5.0, 60.0),
                             rng.uniform_real(10.0, 120.0)};
    job.width = ResourceVec{40.0, 80.0};
    jobs.push_back(job);
  }
  return jobs;
}

using lp::solve_placement_simplex;
using test::sorted_loads;

// One solver's plan must be a valid optimum on its own: every demand fully
// placed inside its window, width bounds respected, and no slot loaded
// beyond the reported peak level.
void expect_valid_plan(const LpSchedule& s, const std::vector<LpJob>& jobs,
                       const std::vector<ResourceVec>& caps) {
  const int num_slots = static_cast<int>(caps.size());
  ASSERT_EQ(s.allocation.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      double placed = 0.0;
      for (int t = 0; t < num_slots; ++t) {
        const double x = s.allocation[j][static_cast<std::size_t>(t)][r];
        EXPECT_GE(x, -1e-9);
        EXPECT_LE(x, jobs[j].width[r] + 1e-7) << "width, job " << j;
        if (t < jobs[j].release_slot || t > jobs[j].deadline_slot) {
          EXPECT_EQ(x, 0.0) << "outside window, job " << j << " slot " << t;
        }
        placed += x;
      }
      EXPECT_NEAR(placed, jobs[j].demand[r], 1e-5) << "job " << j;
    }
  }
  for (int t = 0; t < num_slots; ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      double load = 0.0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        load += s.allocation[j][static_cast<std::size_t>(t)][r];
      }
      EXPECT_LE(load / caps[static_cast<std::size_t>(t)][r],
                s.max_normalized_load + 1e-6)
          << "slot " << t << " resource " << r;
    }
  }
}

// The cross-solver contract: same statuses and diagnoses, the same level
// vector per resource, and each plan independently valid.
void expect_equivalent(const LpSchedule& a, const LpSchedule& b,
                       const std::vector<LpJob>& jobs,
                       const std::vector<ResourceVec>& caps) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.capacity_exceeded, b.capacity_exceeded);
  EXPECT_NEAR(a.max_normalized_load, b.max_normalized_load, 1e-6);
  if (!a.ok()) return;
  for (int r = 0; r < workload::kNumResources; ++r) {
    const std::vector<double> la = sorted_loads(a, r);
    const std::vector<double> lb = sorted_loads(b, r);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t k = 0; k < la.size(); ++k) {
      EXPECT_NEAR(la[k], lb[k], 1e-6) << "resource " << r << " coordinate "
                                      << k;
    }
  }
  expect_valid_plan(a, jobs, caps);
  expect_valid_plan(b, jobs, caps);
}

TEST(SparseDifferential, PlansEquivalentAcrossSeeds) {
  for (std::uint64_t seed : {1u, 7u, 23u, 91u}) {
    const auto jobs = random_jobs(12, 10, seed);
    const auto caps = uniform_caps(10, 150.0, 300.0);
    const LpSchedule flow = solve_placement(jobs, caps, 0);
    const LpSchedule simplex = solve_placement_simplex(jobs, caps, 0);
    ASSERT_TRUE(flow.ok()) << "seed " << seed;
    EXPECT_TRUE(flow.flow_fast_path);
    EXPECT_FALSE(simplex.flow_fast_path);
    expect_equivalent(flow, simplex, jobs, caps);
  }
}

TEST(SparseDifferential, OverloadedAndInfeasibleAgree) {
  // Over-capacity: both report capacity_exceeded with the same level.
  const std::vector<LpJob> heavy = random_jobs(10, 4, 11);
  const auto tight = uniform_caps(4, 30.0, 60.0);
  const LpSchedule flow = solve_placement(heavy, tight, 0);
  const LpSchedule simplex = solve_placement_simplex(heavy, tight, 0);
  expect_equivalent(flow, simplex, heavy, tight);
  EXPECT_TRUE(flow.capacity_exceeded);
  // Width-limited: both diagnose the same infeasibility.
  std::vector<LpJob> narrow = random_jobs(6, 8, 13);
  narrow[2].width = ResourceVec{0.1, 0.1};  // < 1 of >= 5 per window
  const auto caps = uniform_caps(8, 150.0, 300.0);
  const LpSchedule flow_narrow = solve_placement(narrow, caps, 0);
  EXPECT_EQ(flow_narrow.status, lp::SolveStatus::kInfeasible);
  expect_equivalent(flow_narrow, solve_placement_simplex(narrow, caps, 0),
                    narrow, caps);
}

TEST(SparseDifferential, WarmStartedResolvesEquivalent) {
  // One warm basis per resource, threaded from solve to solve: solve,
  // perturb demands under the same shape, re-solve warm. Warm-started
  // simplex solves must still match the flow lexmin.
  const auto caps = uniform_caps(10, 150.0, 300.0);
  lp::ResourceBases bases;
  for (std::uint64_t seed : {3u, 4u}) {  // same windows, different demands
    auto jobs = random_jobs(10, 10, 3);
    util::Rng perturb(seed);
    for (LpJob& job : jobs) {
      job.demand[0] *= perturb.uniform_real(0.8, 1.2);
      job.demand[1] *= perturb.uniform_real(0.8, 1.2);
    }
    const LpSchedule flow = solve_placement(jobs, caps, 0);
    const LpSchedule simplex =
        solve_placement_simplex(jobs, caps, 0, {}, &bases);
    ASSERT_TRUE(flow.ok());
    expect_equivalent(flow, simplex, jobs, caps);
  }
  for (const lp::Basis& basis : bases) {
    EXPECT_FALSE(basis.empty());
  }
}

TEST(SparseDifferential, BudgetExhaustionAgrees) {
  // A 1-unit budget must stop both solvers before their first level with
  // the same status: the watchdog charges one unit per simplex pivot and
  // per augmenting path alike, and sits outside either solver's state.
  const auto jobs = random_jobs(10, 8, 17);
  const auto caps = uniform_caps(8, 120.0, 240.0);
  lp::SolveBudget flow_budget;
  flow_budget.set_pivot_cap(1);
  lp::SolveBudget simplex_budget;
  simplex_budget.set_pivot_cap(1);
  lp::LexMinMaxOptions simplex_options;
  simplex_options.lp_options.budget = &simplex_budget;
  const LpSchedule flow = solve_placement(jobs, caps, 0, &flow_budget);
  const LpSchedule simplex =
      solve_placement_simplex(jobs, caps, 0, simplex_options);
  EXPECT_EQ(flow.status, lp::SolveStatus::kIterationLimit);
  EXPECT_EQ(flow.status, simplex.status);
  EXPECT_EQ(flow.budget_exhausted, simplex.budget_exhausted);
  EXPECT_EQ(flow.pivots, simplex.pivots);
  EXPECT_TRUE(flow.budget_exhausted);
}

TEST(FlowFastPath, MatchesSimplexFirstLevel) {
  // At max_rounds = 1 the simplex lexmin stops after the first level
  // (truncated); the flow lexmin has no round cap and refines every level.
  // Both share the first level, and the flags report which solver ran.
  const auto jobs = random_jobs(12, 10, 29);
  const auto caps = uniform_caps(10, 150.0, 300.0);
  lp::LexMinMaxOptions options;
  options.max_rounds = 1;
  const LpSchedule flow = solve_placement(jobs, caps, 0);
  const LpSchedule simplex = solve_placement_simplex(jobs, caps, 0, options);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(simplex.ok());
  EXPECT_TRUE(flow.flow_fast_path);
  EXPECT_FALSE(simplex.flow_fast_path);
  EXPECT_FALSE(flow.lexmin_truncated);
  EXPECT_TRUE(simplex.lexmin_truncated);
  EXPECT_GT(flow.lexmin_rounds, 1);
  EXPECT_EQ(simplex.lexmin_rounds, 1);
  EXPECT_NEAR(flow.max_normalized_load, simplex.max_normalized_load, 1e-6);
  expect_valid_plan(flow, jobs, caps);
}

TEST(FlowFastPath, DeepRefinementTakesFlowPathAndMatchesSimplex) {
  // Default options refine every simplex level (max_rounds = 64), and the
  // flow lexmin answers them too: its whole sorted load vector must match
  // the simplex lexmin's per resource, and the flags and counts must
  // report which solver ran (a flow solve's pivots are its augmenting
  // paths).
  const auto jobs = random_jobs(12, 10, 29);
  const auto caps = uniform_caps(10, 150.0, 300.0);
  const LpSchedule flow = solve_placement(jobs, caps, 0);
  const LpSchedule simplex = solve_placement_simplex(jobs, caps, 0);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(simplex.ok());
  EXPECT_TRUE(flow.flow_fast_path);
  EXPECT_FALSE(simplex.flow_fast_path);
  EXPECT_GT(flow.pivots, 0);
  EXPECT_GT(flow.lexmin_rounds, 1);
  EXPECT_FALSE(flow.lexmin_truncated);
  EXPECT_FALSE(simplex.lexmin_truncated);
  expect_equivalent(flow, simplex, jobs, caps);
}

}  // namespace
}  // namespace flowtime::core
