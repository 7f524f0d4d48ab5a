// Smoke test for the warm starts of the test-only simplex lexmin
// (lp/lexmin.h), through the placement reference lp::solve_placement_simplex.
//
// Drives the pattern a scheduler's re-plans produce: a sequence of solves
// over the same job set whose remaining demands shrink step by step (work
// completing between deviation re-plans), so every step after the first
// builds the same LP shapes with different data. With each resource's
// final basis passed from solve to solve, the tail steps must warm-start —
// observable through the lp.simplex.warm_starts counter — and the total
// pivot count must drop well below the cold baseline of the identical
// sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/placement_simplex.h"
#include "obs/metrics.h"
#include "obs/testing.h"
#include "util/rng.h"

namespace flowtime::core {
namespace {

using workload::ResourceVec;

constexpr int kHorizon = 16;
constexpr int kSteps = 6;

std::vector<LpJob> make_jobs(util::Rng& rng) {
  std::vector<LpJob> jobs;
  for (int i = 0; i < 10; ++i) {
    LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(rng.uniform_int(0, 6));
    job.deadline_slot =
        job.release_slot + static_cast<int>(rng.uniform_int(3, 9));
    const int window = job.deadline_slot - job.release_slot + 1;
    const double cpu_width = rng.uniform_real(20.0, 60.0);
    const double mem_width = rng.uniform_real(40.0, 120.0);
    job.width = ResourceVec{cpu_width, mem_width};
    // Demand fills 50-80% of the window at full width: multi-round lexmin
    // territory, comfortably feasible at every shrink step.
    const double fill = rng.uniform_real(0.5, 0.8);
    job.demand =
        ResourceVec{fill * cpu_width * window, fill * mem_width * window};
    jobs.push_back(job);
  }
  return jobs;
}

// The re-plan at step s sees the same jobs and windows with demands scaled
// down — progress since the previous plan. The LP shape is unchanged.
std::vector<LpJob> at_step(const std::vector<LpJob>& jobs, int step) {
  std::vector<LpJob> out = jobs;
  const double scale = 1.0 - 0.07 * step;
  for (LpJob& job : out) job.demand = workload::scale(job.demand, scale);
  return out;
}

// Runs the whole sequence, returns per-step pivot counts. `bases`, when
// given, carries each resource's final basis from one step to the next.
std::vector<std::int64_t> run_sequence(const std::vector<LpJob>& jobs,
                                       lp::ResourceBases* bases,
                                       bool warm_start) {
  const std::vector<ResourceVec> caps(
      kHorizon, ResourceVec{500.0, 1000.0});
  lp::LexMinMaxOptions options;
  options.warm_start = warm_start;
  std::vector<std::int64_t> pivots;
  for (int step = 0; step < kSteps; ++step) {
    const LpSchedule s = lp::solve_placement_simplex(at_step(jobs, step),
                                                     caps, 0, options, bases);
    EXPECT_TRUE(s.ok()) << "step " << step;
    EXPECT_FALSE(s.capacity_exceeded) << "step " << step;
    pivots.push_back(s.pivots);
  }
  return pivots;
}

std::int64_t total(const std::vector<std::int64_t>& v) {
  std::int64_t sum = 0;
  for (const std::int64_t p : v) sum += p;
  return sum;
}

TEST(SolverWarmSmoke, ReplanSequenceWarmStartsAndCutsPivots) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);
  obs::Counter& warm_starts =
      obs::registry().counter("lp.simplex.warm_starts");

  util::Rng rng(42);
  const std::vector<LpJob> jobs = make_jobs(rng);

  // Cold baseline: warm starting off entirely — every round of every step
  // pays the full two-phase solve, the pre-hot-path behaviour.
  const std::vector<std::int64_t> cold =
      run_sequence(jobs, nullptr, /*warm_start=*/false);
  EXPECT_EQ(warm_starts.value(), 0) << "cold run must not warm-start";

  // Warm run: rounds thread bases within each solve, and each resource's
  // final basis carries across steps.
  lp::ResourceBases bases;
  const std::vector<std::int64_t> warm =
      run_sequence(jobs, &bases, /*warm_start=*/true);

  EXPECT_GT(warm_starts.value(), 0);
  ASSERT_EQ(cold.size(), warm.size());
  // The hot path must beat the cold baseline outright, and by at least the
  // 2x it is built to deliver on a multi-round replan sequence.
  EXPECT_LT(total(warm), total(cold));
  EXPECT_LE(2 * total(warm), total(cold))
      << "warm total " << total(warm) << " vs cold total " << total(cold);
}

TEST(SolverWarmSmoke, ShapeChangeFallsBackWithoutFailing) {
  // A job set change alters the LP shape: the previous solve's bases no
  // longer fit, the simplex must fall back to a cold solve, and the solve
  // must still succeed.
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);

  util::Rng rng(7);
  std::vector<LpJob> jobs = make_jobs(rng);
  const std::vector<ResourceVec> caps(
      kHorizon, ResourceVec{500.0, 1000.0});
  lp::ResourceBases bases;

  const LpSchedule first =
      lp::solve_placement_simplex(jobs, caps, 0, {}, &bases);
  ASSERT_TRUE(first.ok());

  jobs.pop_back();  // different shape: the bases mismatch, cold solve
  const LpSchedule second =
      lp::solve_placement_simplex(jobs, caps, 0, {}, &bases);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.pivots, 0);
}

}  // namespace
}  // namespace flowtime::core
