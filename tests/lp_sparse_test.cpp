// Differential tests between the two simplex basis representations
// (SimplexEngine::kSparseLu, the default, vs kDenseInverse, the retained
// reference). Both engines walk the same pricing / ratio-test rules, but
// they round the solved directions differently in the last ULP (dense
// inverse-multiply vs sparse LU + eta solves), so degenerate ties can
// resolve to different — equally optimal — vertices. What IS guaranteed,
// and pinned here on generated job sets: identical statuses and
// infeasibility diagnoses, the same optimum level to ~1e-9, and plans that
// are each feasible, demand-complete, and width/window-respecting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solve_budget.h"
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

LpScheduleOptions engine_options(lp::SimplexEngine engine,
                                 bool coupled = false) {
  LpScheduleOptions options;
  options.lexmin.lp_options.engine = engine;
  options.flow_fast_path = false;  // both sides through simplex
  options.coupled_resources = coupled;
  return options;
}

// One engine's plan must be a valid optimum on its own: every demand fully
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

// The cross-engine contract: same statuses and diagnoses, same optimum
// level, and each plan independently valid.
void expect_equivalent(const LpSchedule& a, const LpSchedule& b,
                       const std::vector<LpJob>& jobs,
                       const std::vector<ResourceVec>& caps) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.capacity_exceeded, b.capacity_exceeded);
  EXPECT_NEAR(a.max_normalized_load, b.max_normalized_load, 1e-9);
  if (a.ok()) {
    expect_valid_plan(a, jobs, caps);
    expect_valid_plan(b, jobs, caps);
  }
}

TEST(SparseDifferential, PlansEquivalentAcrossSeeds) {
  for (std::uint64_t seed : {1u, 7u, 23u, 91u}) {
    const auto jobs = random_jobs(12, 10, seed);
    const auto caps = uniform_caps(10, 150.0, 300.0);
    const LpSchedule sparse = solve_placement(
        jobs, caps, 0, engine_options(lp::SimplexEngine::kSparseLu));
    const LpSchedule dense = solve_placement(
        jobs, caps, 0, engine_options(lp::SimplexEngine::kDenseInverse));
    ASSERT_TRUE(sparse.ok()) << "seed " << seed;
    expect_equivalent(sparse, dense, jobs, caps);
  }
}

TEST(SparseDifferential, CoupledFormulationEquivalent) {
  // The coupled matrix loses the clean bipartite TU structure; the
  // equivalence contract must still hold there.
  const auto jobs = random_jobs(8, 8, 5);
  const auto caps = uniform_caps(8, 200.0, 400.0);
  const LpSchedule sparse = solve_placement(
      jobs, caps, 0, engine_options(lp::SimplexEngine::kSparseLu, true));
  const LpSchedule dense = solve_placement(
      jobs, caps, 0, engine_options(lp::SimplexEngine::kDenseInverse, true));
  ASSERT_TRUE(sparse.ok());
  expect_equivalent(sparse, dense, jobs, caps);
}

TEST(SparseDifferential, OverloadedAndInfeasibleAgree) {
  // Over-capacity: both report capacity_exceeded with the same level.
  const std::vector<LpJob> heavy = random_jobs(10, 4, 11);
  const auto tight = uniform_caps(4, 30.0, 60.0);
  const LpSchedule s = solve_placement(
      heavy, tight, 0, engine_options(lp::SimplexEngine::kSparseLu));
  const LpSchedule d = solve_placement(
      heavy, tight, 0, engine_options(lp::SimplexEngine::kDenseInverse));
  expect_equivalent(s, d, heavy, tight);
  EXPECT_TRUE(s.capacity_exceeded);
}

TEST(SparseDifferential, WarmStartedResolvesEquivalent) {
  // Same cache flow the scheduler uses: solve, perturb demands under the
  // same shape, re-solve warm. Warm-started solves must honor the same
  // contract engine-to-engine.
  const auto caps = uniform_caps(10, 150.0, 300.0);
  PlacementWarmCache sparse_cache;
  PlacementWarmCache dense_cache;
  LpScheduleOptions sparse_options =
      engine_options(lp::SimplexEngine::kSparseLu);
  sparse_options.warm_cache = &sparse_cache;
  LpScheduleOptions dense_options =
      engine_options(lp::SimplexEngine::kDenseInverse);
  dense_options.warm_cache = &dense_cache;
  for (std::uint64_t seed : {3u, 4u}) {  // same windows, different demands
    auto jobs = random_jobs(10, 10, 3);
    util::Rng perturb(seed);
    for (LpJob& job : jobs) {
      job.demand[0] *= perturb.uniform_real(0.8, 1.2);
      job.demand[1] *= perturb.uniform_real(0.8, 1.2);
    }
    const LpSchedule s = solve_placement(jobs, caps, 0, sparse_options);
    const LpSchedule d = solve_placement(jobs, caps, 0, dense_options);
    ASSERT_TRUE(s.ok());
    expect_equivalent(s, d, jobs, caps);
  }
}

TEST(SparseDifferential, BudgetExhaustionAgrees) {
  // A 1-pivot budget must stop both engines at the same point with the
  // same statuses — the watchdog sits outside the basis representation.
  const auto jobs = random_jobs(10, 8, 17);
  const auto caps = uniform_caps(8, 120.0, 240.0);
  auto run = [&](lp::SimplexEngine engine) {
    lp::SolveBudget budget;
    budget.set_pivot_cap(1);
    LpScheduleOptions options = engine_options(engine);
    options.lexmin.lp_options.budget = &budget;
    return solve_placement(jobs, caps, 0, options);
  };
  const LpSchedule s = run(lp::SimplexEngine::kSparseLu);
  const LpSchedule d = run(lp::SimplexEngine::kDenseInverse);
  EXPECT_EQ(s.status, d.status);
  EXPECT_EQ(s.budget_exhausted, d.budget_exhausted);
  EXPECT_EQ(s.pivots, d.pivots);
  EXPECT_TRUE(s.budget_exhausted);
}

TEST(FlowFastPath, MatchesSimplexFirstLevel) {
  // At max_rounds = 1 the simplex lexmin stops after the first level
  // (truncated); the flow lexmin ignores the cap and refines every level.
  // Both share the first level, and the flags report which engine ran.
  const auto jobs = random_jobs(12, 10, 29);
  const auto caps = uniform_caps(10, 150.0, 300.0);
  LpScheduleOptions flow_options;
  flow_options.lexmin.max_rounds = 1;
  flow_options.flow_fast_path = true;
  LpScheduleOptions simplex_options = flow_options;
  simplex_options.flow_fast_path = false;
  const LpSchedule flow = solve_placement(jobs, caps, 0, flow_options);
  const LpSchedule simplex = solve_placement(jobs, caps, 0, simplex_options);
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
  // Default options refine every level (max_rounds = 64), and the flow
  // lexmin still answers them: its whole sorted load vector must match the
  // simplex lexmin's per resource, and the flags and counts must report
  // which engine ran (a flow solve's pivots are its augmenting paths).
  const auto jobs = random_jobs(12, 10, 29);
  const auto caps = uniform_caps(10, 150.0, 300.0);
  LpScheduleOptions flow_options;
  ASSERT_TRUE(flow_options.flow_fast_path);
  LpScheduleOptions simplex_options = flow_options;
  simplex_options.flow_fast_path = false;
  const LpSchedule flow = solve_placement(jobs, caps, 0, flow_options);
  const LpSchedule simplex = solve_placement(jobs, caps, 0, simplex_options);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(simplex.ok());
  EXPECT_TRUE(flow.flow_fast_path);
  EXPECT_FALSE(simplex.flow_fast_path);
  EXPECT_GT(flow.pivots, 0);
  EXPECT_GT(flow.lexmin_rounds, 1);
  EXPECT_FALSE(flow.lexmin_truncated);
  EXPECT_FALSE(simplex.lexmin_truncated);
  EXPECT_NEAR(flow.max_normalized_load, simplex.max_normalized_load, 1e-6);
  for (int r = 0; r < workload::kNumResources; ++r) {
    std::vector<double> a;
    std::vector<double> b;
    for (int t = 0; t < 10; ++t) {
      a.push_back(flow.normalized_load[static_cast<std::size_t>(t)][r]);
      b.push_back(simplex.normalized_load[static_cast<std::size_t>(t)][r]);
    }
    std::sort(a.rbegin(), a.rend());
    std::sort(b.rbegin(), b.rend());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-6) << "resource " << r << " coordinate "
                                    << k;
    }
  }
  expect_valid_plan(flow, jobs, caps);
}

}  // namespace
}  // namespace flowtime::core
