// Tests for the scheduling LP builder/solver (paper §V): demand
// satisfaction, window and width respect, load flattening, infeasibility
// signalling, and integral extraction of its plans (the paper's Lemma 2,
// through the test-side checker lp/integral_extraction.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/integral_extraction.h"
#include "util/rng.h"

namespace flowtime::core {
namespace {

using workload::kCpu;
using workload::kMemory;
using workload::ResourceVec;

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

TEST(LpFormulation, SingleJobSpreadsFlat) {
  const std::vector<LpJob> jobs = {make_job(7, 0, 4, 50.0, 100.0, 20.0, 40.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(5, 100.0, 200.0), 0);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.capacity_exceeded);
  // 50 over 5 slots with cap 100 -> 10 per slot, normalized 0.1.
  EXPECT_NEAR(s.max_normalized_load, 0.1, 1e-6);
  double total_cpu = 0.0;
  for (int t = 0; t < 5; ++t) {
    EXPECT_NEAR(s.allocation[0][static_cast<std::size_t>(t)][kCpu], 10.0,
                1e-6);
    total_cpu += s.allocation[0][static_cast<std::size_t>(t)][kCpu];
  }
  EXPECT_NEAR(total_cpu, 50.0, 1e-6);
}

TEST(LpFormulation, DemandIsFullySatisfiedForEveryResource) {
  util::Rng rng(3);
  std::vector<LpJob> jobs;
  for (int i = 0; i < 8; ++i) {
    const int release = static_cast<int>(rng.uniform_int(0, 6));
    const int deadline = release + static_cast<int>(rng.uniform_int(2, 8));
    jobs.push_back(make_job(i, release, deadline,
                            rng.uniform_real(10.0, 80.0),
                            rng.uniform_real(20.0, 160.0), 40.0, 80.0));
  }
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(15, 200.0, 400.0), 0);
  ASSERT_TRUE(s.ok());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ResourceVec placed{};
    for (int t = 0; t < s.num_slots; ++t) {
      placed = workload::add(placed,
                             s.allocation[j][static_cast<std::size_t>(t)]);
      // Window respected.
      if (t < jobs[j].release_slot || t > jobs[j].deadline_slot) {
        EXPECT_TRUE(workload::is_zero(
            s.allocation[j][static_cast<std::size_t>(t)], 1e-7));
      }
      // Width respected.
      EXPECT_TRUE(workload::fits_within(
          s.allocation[j][static_cast<std::size_t>(t)], jobs[j].width,
          1e-6));
    }
    EXPECT_NEAR(placed[kCpu], jobs[j].demand[kCpu], 1e-5);
    EXPECT_NEAR(placed[kMemory], jobs[j].demand[kMemory], 1e-5);
  }
}

TEST(LpFormulation, LexminPrefersFlatOverlap) {
  // Two jobs, one pinned to slots {0,1}, one free over {0..3}; the free job
  // should avoid the pinned job's slots.
  const std::vector<LpJob> jobs = {
      make_job(0, 0, 1, 80.0, 0.0, 40.0, 0.0),
      make_job(1, 0, 3, 80.0, 0.0, 40.0, 0.0),
  };
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(4, 100.0, 100.0), 0);
  ASSERT_TRUE(s.ok());
  // Flattest profile: 40 everywhere (0.4 normalized).
  EXPECT_NEAR(s.max_normalized_load, 0.4, 1e-6);
  EXPECT_NEAR(s.allocation[1][2][kCpu] + s.allocation[1][3][kCpu], 80.0,
              1e-5);
}

TEST(LpFormulation, ZeroDemandResourceProducesNoAllocation) {
  const std::vector<LpJob> jobs = {make_job(0, 0, 3, 40.0, 0.0, 20.0, 0.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(4, 100.0, 100.0), 0);
  ASSERT_TRUE(s.ok());
  for (int t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(s.allocation[0][static_cast<std::size_t>(t)][kMemory],
                     0.0);
  }
}

TEST(LpFormulation, EmptyWindowIsInfeasible) {
  // Window entirely before the horizon start.
  const std::vector<LpJob> jobs = {make_job(0, 0, 2, 40.0, 0.0, 20.0, 0.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(5, 100.0, 100.0), /*first_slot=*/3);
  EXPECT_EQ(s.status, lp::SolveStatus::kInfeasible);
}

TEST(LpFormulation, TooNarrowWidthIsInfeasible) {
  // 100 demand, width 10, window 5 slots: max 50 placeable.
  const std::vector<LpJob> jobs = {make_job(0, 0, 4, 100.0, 0.0, 10.0, 0.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(5, 1000.0, 1000.0), 0);
  EXPECT_EQ(s.status, lp::SolveStatus::kInfeasible);
}

TEST(LpFormulation, CapacityExceededIsFlaggedNotFatal) {
  // Two jobs each needing the full cap in a single shared slot.
  const std::vector<LpJob> jobs = {
      make_job(0, 0, 0, 100.0, 0.0, 100.0, 0.0),
      make_job(1, 0, 0, 100.0, 0.0, 100.0, 0.0),
  };
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(1, 100.0, 100.0), 0);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.capacity_exceeded);
  EXPECT_NEAR(s.max_normalized_load, 2.0, 1e-6);
}

TEST(LpFormulation, WindowsClipToHorizon) {
  const std::vector<LpJob> jobs = {make_job(0, 2, 100, 30.0, 0.0, 10.0, 0.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(6, 100.0, 100.0), 0);
  ASSERT_TRUE(s.ok());
  // Only slots 2..5 available: 30 over 4 slots.
  ResourceVec placed{};
  for (int t = 0; t < s.num_slots; ++t) {
    placed =
        workload::add(placed, s.allocation[0][static_cast<std::size_t>(t)]);
  }
  EXPECT_NEAR(placed[kCpu], 30.0, 1e-6);
  EXPECT_TRUE(workload::is_zero(s.allocation[0][0], 1e-9));
  EXPECT_TRUE(workload::is_zero(s.allocation[0][1], 1e-9));
}

TEST(LpFormulation, SecondLexLevelRefinesUnconstrainedSlots) {
  // Job A pinned to slot 0 (load 0.8); job B over slots 0..2 must flatten
  // its 60 units over slots 1,2 (0.3 each), never slot 0.
  const std::vector<LpJob> jobs = {
      make_job(0, 0, 0, 80.0, 0.0, 100.0, 0.0),
      make_job(1, 0, 2, 60.0, 0.0, 100.0, 0.0),
  };
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(3, 100.0, 100.0), 0);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.normalized_load[0][kCpu], 0.8, 1e-6);
  EXPECT_NEAR(s.normalized_load[1][kCpu], 0.3, 1e-6);
  EXPECT_NEAR(s.normalized_load[2][kCpu], 0.3, 1e-6);
  EXPECT_LT(s.allocation[1][0][kCpu], 1e-6);
}

TEST(LpFormulation, IntegralExtractionYieldsIntegersOnIntegerData) {
  // 10 units over 3 slots: fractional lexmin gives 3.33 each; integral
  // extraction must give integers summing to 10 with max 4.
  std::vector<LpJob> jobs = {make_job(0, 0, 2, 10.0, 0.0, 10.0, 0.0)};
  const auto caps = uniform_caps(3, 10.0, 10.0);
  const LpSchedule fractional = solve_placement(jobs, caps, 0);
  ASSERT_TRUE(fractional.ok());
  const LpSchedule s = lp::extract_integral_placement(jobs, caps, fractional);
  ASSERT_TRUE(s.ok());
  double total = 0.0;
  for (int t = 0; t < 3; ++t) {
    const double v = s.allocation[0][static_cast<std::size_t>(t)][kCpu];
    EXPECT_NEAR(v, std::round(v), 1e-6) << "slot " << t;
    EXPECT_LE(v, 4.0 + 1e-6);
    total += v;
  }
  EXPECT_NEAR(total, 10.0, 1e-6);
}

TEST(LpFormulation, InfiniteWidthBindsAtTheDemand) {
  // Job 0 pins 50 to slot 0; job 1 has no width bound, and the flattest
  // profile puts its 90 on slots 1 and 2. An infinite width must place
  // exactly like a width equal to the demand, which never binds.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<LpJob> jobs = {make_job(0, 0, 0, 50.0, 0.0, 100.0, 0.0),
                             make_job(1, 0, 2, 90.0, 0.0, kInf, kInf)};
  const auto caps = uniform_caps(3, 100.0, 100.0);
  const LpSchedule s = solve_placement(jobs, caps, 0);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.normalized_load[0][kCpu], 0.5, 1e-9);
  EXPECT_NEAR(s.allocation[1][1][kCpu], 45.0, 1e-9);
  EXPECT_NEAR(s.allocation[1][2][kCpu], 45.0, 1e-9);
  jobs[1].width = jobs[1].demand;
  const LpSchedule finite = solve_placement(jobs, caps, 0);
  ASSERT_TRUE(finite.ok());
  EXPECT_EQ(s.allocation, finite.allocation);
  EXPECT_EQ(s.normalized_load, finite.normalized_load);
}

TEST(LpFormulation, InvalidDemandIsInfeasible) {
  for (const double demand : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -5.0}) {
    const std::vector<LpJob> jobs = {
        make_job(0, 0, 2, 30.0, 40.0, 20.0, 20.0),
        make_job(1, 0, 2, 30.0, demand, 20.0, 20.0)};
    const LpSchedule s =
        solve_placement(jobs, uniform_caps(3, 100.0, 100.0), 0);
    EXPECT_EQ(s.status, lp::SolveStatus::kInfeasible) << "demand " << demand;
  }
}

TEST(LpFormulation, InvalidWidthIsInfeasible) {
  for (const double width : {std::numeric_limits<double>::quiet_NaN(),
                             -5.0}) {
    const std::vector<LpJob> jobs = {
        make_job(0, 0, 2, 30.0, 40.0, 20.0, 20.0),
        make_job(1, 0, 2, 30.0, 40.0, width, 20.0)};
    const LpSchedule s =
        solve_placement(jobs, uniform_caps(3, 100.0, 100.0), 0);
    EXPECT_EQ(s.status, lp::SolveStatus::kInfeasible) << "width " << width;
  }
}

class IntegralExtractionProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntegralExtractionProperty, IntegerDataGiveIntegerPlansUnderCeilCaps) {
  // Integer demands, widths and caps, with every other job's width
  // binding. The extracted plan must be integral, demand-complete, inside
  // every window and width, and load each slot at most ceil(u_t * C_t) of
  // the fractional lexmin load u_t.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const int slots = static_cast<int>(rng.uniform_int(3, 12));
  std::vector<ResourceVec> caps;
  for (int t = 0; t < slots; ++t) {
    caps.push_back(ResourceVec{static_cast<double>(rng.uniform_int(20, 60)),
                               static_cast<double>(rng.uniform_int(40, 90))});
  }
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  std::vector<LpJob> jobs;
  for (int i = 0; i < n; ++i) {
    const int release = static_cast<int>(rng.uniform_int(0, slots - 1));
    const int deadline =
        static_cast<int>(rng.uniform_int(release, slots - 1));
    const int window = deadline - release + 1;
    ResourceVec width{};
    ResourceVec demand{};
    for (int r = 0; r < workload::kNumResources; ++r) {
      width[r] = static_cast<double>(rng.uniform_int(1, 12));
      demand[r] = i % 2 == 0
                      ? width[r] * window  // binding in every slot
                      : static_cast<double>(rng.uniform_int(
                            0, static_cast<std::int64_t>(width[r]) * window));
    }
    jobs.push_back(make_job(i, release, deadline, demand[kCpu],
                            demand[kMemory], width[kCpu], width[kMemory]));
  }
  const LpSchedule fractional = solve_placement(jobs, caps, 0);
  ASSERT_TRUE(fractional.ok());
  const LpSchedule s = lp::extract_integral_placement(jobs, caps, fractional);
  ASSERT_TRUE(s.ok());
  for (int r = 0; r < workload::kNumResources; ++r) {
    for (int t = 0; t < slots; ++t) {
      double load = 0.0;
      for (int j = 0; j < n; ++j) {
        const LpJob& job = jobs[static_cast<std::size_t>(j)];
        const double x = s.allocation[static_cast<std::size_t>(j)]
                                     [static_cast<std::size_t>(t)][r];
        EXPECT_NEAR(x, std::round(x), 1e-9) << "job " << j << " slot " << t;
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, job.width[r]);
        if (t < job.release_slot || t > job.deadline_slot) {
          EXPECT_EQ(x, 0.0) << "job " << j << " outside window at " << t;
        }
        load += x;
      }
      const double z = fractional.normalized_load[static_cast<std::size_t>(
                           t)][r] *
                       caps[static_cast<std::size_t>(t)][r];
      EXPECT_LE(load, std::ceil(z - 1e-9) + 1e-9)
          << "resource " << r << " slot " << t;
    }
    for (int j = 0; j < n; ++j) {
      double placed = 0.0;
      for (int t = 0; t < slots; ++t) {
        placed += s.allocation[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(t)][r];
      }
      EXPECT_NEAR(placed, jobs[static_cast<std::size_t>(j)].demand[r], 1e-9)
          << "job " << j << " resource " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegralExtractionProperty,
                         ::testing::Range(1, 25));

TEST(LpFormulation, NonZeroFirstSlotOffsetsIndices) {
  const std::vector<LpJob> jobs = {make_job(0, 10, 12, 30.0, 0.0, 15.0, 0.0)};
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(3, 100.0, 100.0), /*first_slot=*/10);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.first_slot, 10);
  ResourceVec placed{};
  for (int t = 0; t < 3; ++t) {
    placed =
        workload::add(placed, s.allocation[0][static_cast<std::size_t>(t)]);
  }
  EXPECT_NEAR(placed[kCpu], 30.0, 1e-6);
}

TEST(LpFormulation, ResourcesAreSolvedIndependently) {
  // CPU tight in slot 0, memory tight in slot 1: per-resource lexmin finds
  // both flat placements independently.
  std::vector<ResourceVec> caps = {ResourceVec{10.0, 100.0},
                                   ResourceVec{100.0, 10.0}};
  const std::vector<LpJob> jobs = {make_job(0, 0, 1, 20.0, 20.0, 20.0, 20.0)};
  const LpSchedule s = solve_placement(jobs, caps, 0);
  ASSERT_TRUE(s.ok());
  // CPU: lexmin puts at most cap*level in slot 0; with caps 10/100 the flat
  // split is load-balanced by normalized value.
  const double cpu0 = s.allocation[0][0][kCpu];
  const double cpu1 = s.allocation[0][1][kCpu];
  EXPECT_NEAR(cpu0 + cpu1, 20.0, 1e-6);
  EXPECT_LT(cpu0, cpu1);  // slot 0 has 10x less CPU capacity
  const double mem0 = s.allocation[0][0][kMemory];
  const double mem1 = s.allocation[0][1][kMemory];
  EXPECT_NEAR(mem0 + mem1, 20.0, 1e-6);
  EXPECT_GT(mem0, mem1);  // and vice versa for memory
}

class LpFormulationProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpFormulationProperty, RandomInstancesSatisfyAllInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int slots = static_cast<int>(rng.uniform_int(5, 20));
  const int n = static_cast<int>(rng.uniform_int(2, 15));
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
  const LpSchedule s =
      solve_placement(jobs, uniform_caps(slots, 500.0, 1024.0), 0);
  ASSERT_TRUE(s.ok());
  for (int j = 0; j < n; ++j) {
    ResourceVec placed{};
    for (int t = 0; t < slots; ++t) {
      const ResourceVec& a =
          s.allocation[static_cast<std::size_t>(j)][static_cast<std::size_t>(t)];
      EXPECT_TRUE(workload::fits_within(a, jobs[static_cast<std::size_t>(j)].width, 1e-5));
      if (t < jobs[static_cast<std::size_t>(j)].release_slot ||
          t > jobs[static_cast<std::size_t>(j)].deadline_slot) {
        EXPECT_TRUE(workload::is_zero(a, 1e-6));
      }
      placed = workload::add(placed, a);
    }
    EXPECT_NEAR(placed[kCpu], jobs[static_cast<std::size_t>(j)].demand[kCpu],
                1e-4);
    EXPECT_NEAR(placed[kMemory],
                jobs[static_cast<std::size_t>(j)].demand[kMemory], 1e-4);
  }
  // Loads never exceed the reported max level.
  for (int t = 0; t < slots; ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      EXPECT_LE(s.normalized_load[static_cast<std::size_t>(t)][r],
                s.max_normalized_load + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpFormulationProperty,
                         ::testing::Range(100, 112));

}  // namespace
}  // namespace flowtime::core
