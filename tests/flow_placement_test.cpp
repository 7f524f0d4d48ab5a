// Tests for the max-flow engine and the flow-based placement fast path,
// including cross-checks against the LP solver (they must agree on the
// first lexmin level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/flow_placement.h"
#include "core/lp_formulation.h"
#include "lp/maxflow.h"
#include "obs/testing.h"
#include "util/rng.h"

namespace flowtime {
namespace {

using core::LpJob;
using workload::kCpu;
using workload::ResourceVec;

TEST(MaxFlow, ClassicSmallNetwork) {
  // CLRS-style example: max flow 23.
  lp::FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_NEAR(net.max_flow(0, 5), 23.0, 1e-9);
}

TEST(MaxFlow, DisconnectedSinkGivesZero) {
  lp::FlowNetwork net(3);
  net.add_edge(0, 1, 5);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 0.0);
}

TEST(MaxFlow, FlowConservationAndEdgeQueries) {
  lp::FlowNetwork net(4);
  const int a = net.add_edge(0, 1, 3);
  const int b = net.add_edge(0, 2, 2);
  const int c = net.add_edge(1, 3, 2);
  const int d = net.add_edge(2, 3, 4);
  const double total = net.max_flow(0, 3);
  EXPECT_NEAR(total, 4.0, 1e-9);
  EXPECT_NEAR(net.flow(a) + net.flow(b), total, 1e-9);
  EXPECT_NEAR(net.flow(c) + net.flow(d), total, 1e-9);
  EXPECT_LE(net.flow(a), 3.0 + 1e-9);
  EXPECT_LE(net.flow(c), 2.0 + 1e-9);
}

TEST(MaxFlow, SetCapacityReparameterizes) {
  lp::FlowNetwork net(3);
  const int edge = net.add_edge(0, 1, 1);
  net.add_edge(1, 2, 10);
  EXPECT_NEAR(net.max_flow(0, 2), 1.0, 1e-9);
  net.set_capacity(edge, 7);
  EXPECT_NEAR(net.max_flow(0, 2), 7.0, 1e-9);
}

std::vector<ResourceVec> uniform_caps(int slots, double cpu, double mem) {
  return std::vector<ResourceVec>(static_cast<std::size_t>(slots),
                                  ResourceVec{cpu, mem});
}

LpJob make_job(int uid, int release, int deadline, double cpu_demand,
               double mem_demand, double cpu_width, double mem_width) {
  LpJob job;
  job.uid = uid;
  job.release_slot = release;
  job.deadline_slot = deadline;
  job.demand = ResourceVec{cpu_demand, mem_demand};
  job.width = ResourceVec{cpu_width, mem_width};
  return job;
}

// Per-slot rows achieving the first level, allocation[j][t][r]: each
// resource's rows from solve_resource_flow_level (solve_flow_placement
// answers the level only), up to the first resource whose level fails.
std::vector<std::vector<ResourceVec>> first_level_rows(
    const std::vector<LpJob>& jobs, const std::vector<ResourceVec>& caps,
    int first_slot) {
  std::vector<std::vector<ResourceVec>> rows(
      jobs.size(), std::vector<ResourceVec>(caps.size()));
  for (int r = 0; r < workload::kNumResources; ++r) {
    const core::ResourceFlowLexmin level =
        core::solve_resource_flow_level(jobs, caps, first_slot, r);
    if (!level.any_demand) continue;
    if (!level.ok()) break;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t t = 0; t < caps.size(); ++t) {
        rows[j][t][r] = level.allocation[j][t];
      }
    }
  }
  return rows;
}

TEST(FlowPlacement, SingleJobLevelMatchesArithmetic) {
  const std::vector<LpJob> jobs = {make_job(0, 0, 4, 50.0, 0.0, 20.0, 0.0)};
  const auto result =
      core::solve_flow_placement(jobs, uniform_caps(5, 100.0, 100.0), 0);
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.min_max_level, 0.1, 1e-5);  // 50 / (5 x 100)
  const auto allocation =
      first_level_rows(jobs, uniform_caps(5, 100.0, 100.0), 0);
  ResourceVec placed{};
  for (int t = 0; t < 5; ++t) {
    placed = workload::add(placed, allocation[0][static_cast<std::size_t>(t)]);
  }
  EXPECT_NEAR(placed[kCpu], 50.0, 1e-6);
}

TEST(FlowPlacement, DetectsWindowInfeasibility) {
  // Demand 100, width 10, window 5 slots: impossible.
  const std::vector<LpJob> jobs = {make_job(0, 0, 4, 100.0, 0.0, 10.0, 0.0)};
  const auto result =
      core::solve_flow_placement(jobs, uniform_caps(5, 1000.0, 1000.0), 0);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(std::isinf(result.min_max_level));
}

TEST(FlowPlacement, OverCapacityReportsLevelAboveOne) {
  const std::vector<LpJob> jobs = {
      make_job(0, 0, 0, 100.0, 0.0, 100.0, 0.0),
      make_job(1, 0, 0, 100.0, 0.0, 100.0, 0.0)};
  const auto result =
      core::solve_flow_placement(jobs, uniform_caps(1, 100.0, 100.0), 0);
  EXPECT_FALSE(result.feasible);
  EXPECT_NEAR(result.min_max_level, 2.0, 1e-4);
}

TEST(FlowPlacement, EmptyWindowAfterClippingIsInfeasible) {
  const std::vector<LpJob> jobs = {make_job(0, 0, 2, 10.0, 0.0, 10.0, 0.0)};
  const auto result = core::solve_flow_placement(
      jobs, uniform_caps(5, 100.0, 100.0), /*first_slot=*/3);
  EXPECT_FALSE(result.feasible);
}

TEST(FlowPlacement, DefectsAreLeftToTheLevelSolve) {
  // Resource 0 is width-limited far past the bound, but a NaN demand on
  // resource 1 means the bound is skipped: the level solve of resource 0
  // answers, as it did before the bound existed.
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);
  std::vector<LpJob> jobs = {make_job(0, 0, 4, 100.0, 1.0, 10.0, 1.0),
                             make_job(1, 0, 4, 1.0, 1.0, 1.0, 1.0)};
  jobs[1].demand[workload::kMemory] = std::nan("");
  const auto result =
      core::solve_flow_placement(jobs, uniform_caps(5, 1000.0, 1000.0), 0);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(std::isinf(result.min_max_level));
  EXPECT_EQ(obs::registry().counter("core.admission.width_limited").value(),
            0);
}

// solve_flow_placement without the width bound: every resource's level
// solve, merged the way solve_flow_placement merges them.
core::FlowPlacementResult level_reference(
    const std::vector<LpJob>& jobs, const std::vector<ResourceVec>& caps,
    int first_slot) {
  core::FlowPlacementResult reference;
  reference.feasible = true;
  for (int r = 0; r < workload::kNumResources; ++r) {
    const core::ResourceFlowLexmin level =
        core::solve_resource_flow_level(jobs, caps, first_slot, r);
    if (!level.any_demand) continue;
    if (!level.ok()) {
      reference.feasible = false;
      reference.min_max_level = std::numeric_limits<double>::infinity();
      return reference;
    }
    reference.min_max_level =
        std::max(reference.min_max_level, level.max_level());
    if (level.max_level() > 1.0 + 1e-6) reference.feasible = false;
  }
  return reference;
}

int clipped_slots(const LpJob& job, int first_slot, int last_slot) {
  return std::min(job.deadline_slot, last_slot) -
         std::max(job.release_slot, first_slot) + 1;
}

TEST(FlowPlacementWidthBound, NeverChangesAVerdict) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);
  const obs::Counter& answered_by_bound =
      obs::registry().counter("core.admission.width_limited");
  // One job's demand exceeds its width times its clipped window by a
  // multiple of the bound's tolerance, 1e-6 * max(scale, D). 1e-4x is below
  // the level solve's own routing tolerance (1e-9 of the same), so the
  // solve excuses it; 0.1x is left to the solve, which finds no level; 1x
  // sits on the boundary; 10x is answered by the bound.
  const double kShortfalls[] = {0.0, 1e-4, 0.1, 1.0, 10.0};
  const double kInf = std::numeric_limits<double>::infinity();
  int by_bound = 0;
  int infeasible_by_solve = 0;
  int finite = 0;
  for (int seed = 1; seed <= 300; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    const int slots = static_cast<int>(rng.uniform_int(3, 12));
    const int first_slot = static_cast<int>(rng.uniform_int(0, 3));
    const int last_slot = first_slot + slots - 1;
    std::vector<ResourceVec> caps(static_cast<std::size_t>(slots));
    for (ResourceVec& cap : caps) {
      cap = ResourceVec{rng.uniform_real(20.0, 200.0),
                        rng.uniform_real(40.0, 400.0)};
    }
    std::vector<LpJob> jobs(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      LpJob& job = jobs[j];
      job.uid = static_cast<int>(j);
      job.release_slot =
          static_cast<int>(rng.uniform_int(first_slot - 2, last_slot));
      job.deadline_slot = static_cast<int>(rng.uniform_int(
          std::max(job.release_slot, first_slot), last_slot + 2));
      const int window = clipped_slots(job, first_slot, last_slot);
      for (int r = 0; r < workload::kNumResources; ++r) {
        job.width[r] = rng.uniform_real(5.0, 60.0);
        switch (rng.uniform_int(0, 4)) {
          case 0:  // no demand
            job.demand[r] = 0.0;
            break;
          case 1:  // infinite width: binds at the demand
            job.width[r] = kInf;
            job.demand[r] = rng.uniform_real(1.0, 200.0);
            break;
          case 2:  // zero width, rarely with demand it can never place
            job.width[r] = 0.0;
            job.demand[r] =
                rng.uniform_int(0, 4) == 0 ? rng.uniform_real(1.0, 10.0) : 0.0;
            break;
          default:  // fits its window at some load
            job.demand[r] = rng.uniform_real(0.05, 1.0) * job.width[r] *
                            window;
        }
      }
    }
    const double shortfall = kShortfalls[seed % 5];
    const int r = static_cast<int>(rng.uniform_int(0, 1));
    LpJob& tight =
        jobs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(jobs.size()) - 1))];
    tight.width[r] = rng.uniform_real(5.0, 60.0);
    tight.demand[r] =
        tight.width[r] * clipped_slots(tight, first_slot, last_slot);
    double scale = 1e-9;
    for (const ResourceVec& cap : caps) scale = std::max(scale, cap[r]);
    double demand = 0.0;
    for (const LpJob& job : jobs) demand += job.demand[r];
    tight.demand[r] += shortfall * 1e-6 * std::max(scale, demand);

    const std::int64_t before = answered_by_bound.value();
    const auto result = core::solve_flow_placement(jobs, caps, first_slot);
    const bool answered = answered_by_bound.value() > before;
    const auto reference = level_reference(jobs, caps, first_slot);
    EXPECT_EQ(result.feasible, reference.feasible) << "seed " << seed;
    if (std::isinf(reference.min_max_level)) {
      EXPECT_TRUE(std::isinf(result.min_max_level)) << "seed " << seed;
      ++(answered ? by_bound : infeasible_by_solve);
    } else {
      EXPECT_EQ(result.min_max_level, reference.min_max_level)
          << "seed " << seed;
      EXPECT_FALSE(answered) << "seed " << seed;
      ++finite;
    }
    if (shortfall == 10.0) {
      EXPECT_TRUE(answered) << "seed " << seed;
    }
  }
  EXPECT_GT(by_bound, 0);
  EXPECT_GT(infeasible_by_solve, 0);
  EXPECT_GT(finite, 0);
}

class FlowVsLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowVsLpProperty, FirstLevelAgreesWithTheLpSolver) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int slots = static_cast<int>(rng.uniform_int(4, 16));
  const int n = static_cast<int>(rng.uniform_int(2, 12));
  std::vector<LpJob> jobs;
  for (int i = 0; i < n; ++i) {
    const int release = static_cast<int>(rng.uniform_int(0, slots - 1));
    const int deadline =
        static_cast<int>(rng.uniform_int(release, slots - 1));
    const int window = deadline - release + 1;
    const double cpu_width = rng.uniform_real(5.0, 30.0);
    const double mem_width = rng.uniform_real(5.0, 60.0);
    jobs.push_back(make_job(i, release, deadline,
                            rng.uniform_real(0.0, cpu_width * window),
                            rng.uniform_real(0.0, mem_width * window),
                            cpu_width, mem_width));
  }
  const auto caps = uniform_caps(slots, 200.0, 400.0);
  const auto flow = core::solve_flow_placement(jobs, caps, 0);
  const auto lp = core::solve_placement(jobs, caps, 0);
  ASSERT_TRUE(lp.ok());
  ASSERT_TRUE(flow.feasible || flow.min_max_level > 1.0);
  EXPECT_NEAR(flow.min_max_level, lp.max_normalized_load, 1e-3)
      << "flow and LP disagree on the first lexmin level";

  // The flow allocation must satisfy all the same invariants.
  const auto allocation = first_level_rows(jobs, caps, 0);
  for (int j = 0; j < n; ++j) {
    ResourceVec placed{};
    for (int t = 0; t < slots; ++t) {
      const ResourceVec& a =
          allocation[static_cast<std::size_t>(j)][static_cast<std::size_t>(t)];
      EXPECT_TRUE(workload::fits_within(
          a, jobs[static_cast<std::size_t>(j)].width, 1e-5));
      placed = workload::add(placed, a);
    }
    EXPECT_NEAR(placed[kCpu], jobs[static_cast<std::size_t>(j)].demand[kCpu],
                1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowVsLpProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace flowtime
