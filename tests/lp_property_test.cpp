// Deeper property tests for the LP stack: strong duality and complementary
// slackness on random LPs, branch-and-bound versus exhaustive enumeration
// on random boxed ILPs, and lexmin invariants under permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/flow_placement.h"
#include "lp/branch_and_bound.h"
#include "lp/lexmin.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace flowtime::lp {
namespace {

// Random LP with nonnegative bounded variables and <= rows; always feasible
// (x = 0 is a point) and always bounded (box constraints).
LpProblem random_boxed_lp(util::Rng& rng, int columns, int rows) {
  LpProblem p;
  for (int j = 0; j < columns; ++j) {
    p.add_column(rng.uniform_real(-5.0, 5.0), 0.0,
                 rng.uniform_real(1.0, 10.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < columns; ++j) {
      if (rng.bernoulli(0.6)) {
        entries.push_back(RowEntry{j, rng.uniform_real(-2.0, 4.0)});
      }
    }
    p.add_row(RowSense::kLessEqual, rng.uniform_real(1.0, 20.0),
              std::move(entries));
  }
  return p;
}

class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, SolutionIsFeasibleAndObjectiveConsistent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const LpProblem p = random_boxed_lp(rng, 12, 8);
  SimplexSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_TRUE(p.is_feasible(s.x, 1e-5));
  EXPECT_NEAR(s.objective, p.objective_value(s.x), 1e-6);
}

TEST_P(RandomLpProperty, NoFeasiblePointBeatsTheReportedOptimum) {
  // Sample feasible points: the optimum must weakly dominate all of them.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const LpProblem p = random_boxed_lp(rng, 10, 6);
  SimplexSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(p.num_columns()));
    for (int j = 0; j < p.num_columns(); ++j) {
      x[static_cast<std::size_t>(j)] =
          rng.uniform_real(0.0, p.upper_bound(j));
    }
    if (!p.is_feasible(x, 1e-9)) continue;
    EXPECT_GE(p.objective_value(x), s.objective - 1e-6);
  }
}

TEST_P(RandomLpProperty, ComplementarySlacknessHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const LpProblem p = random_boxed_lp(rng, 9, 5);
  SimplexSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  ASSERT_EQ(s.duals.size(), static_cast<std::size_t>(p.num_rows()));
  for (int i = 0; i < p.num_rows(); ++i) {
    const double slack = p.row_rhs(i) - s.row_activity[static_cast<std::size_t>(i)];
    const double dual = s.duals[static_cast<std::size_t>(i)];
    // A <= row with positive slack must carry a zero dual.
    if (slack > 1e-5) {
      EXPECT_NEAR(dual, 0.0, 1e-5)
          << "row " << i << " slack " << slack << " dual " << dual;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Branch and bound vs exhaustive enumeration over small integer boxes.
// ---------------------------------------------------------------------------

class RandomIlpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomIlpProperty, MatchesExhaustiveEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const int columns = 5;
  LpProblem p;
  std::vector<int> upper(columns);
  for (int j = 0; j < columns; ++j) {
    upper[static_cast<std::size_t>(j)] = static_cast<int>(rng.uniform_int(1, 3));
    p.add_column(rng.uniform_real(-4.0, 4.0), 0.0,
                 upper[static_cast<std::size_t>(j)]);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < columns; ++j) {
      entries.push_back(RowEntry{j, rng.uniform_real(-1.0, 3.0)});
    }
    p.add_row(RowSense::kLessEqual, rng.uniform_real(2.0, 10.0),
              std::move(entries));
  }

  std::vector<int> ints(columns);
  std::iota(ints.begin(), ints.end(), 0);
  BranchAndBound bnb;
  const Solution s = bnb.solve(p, ints);

  // Exhaustive search over the integer box.
  double best = kInfinity;
  std::vector<double> x(static_cast<std::size_t>(columns), 0.0);
  std::function<void(int)> enumerate = [&](int j) {
    if (j == columns) {
      if (p.is_feasible(x, 1e-9)) {
        best = std::min(best, p.objective_value(x));
      }
      return;
    }
    for (int v = 0; v <= upper[static_cast<std::size_t>(j)]; ++v) {
      x[static_cast<std::size_t>(j)] = v;
      enumerate(j + 1);
    }
  };
  enumerate(0);

  if (std::isinf(best)) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_TRUE(s.optimal());
    EXPECT_NEAR(s.objective, best, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIlpProperty, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Lexmin invariants.
// ---------------------------------------------------------------------------

TEST(LexMinMaxInvariance, LoadOrderPermutationDoesNotChangeTheProfile) {
  // Same balancing problem, load rows listed in two different orders: the
  // multiset of final loads must match.
  auto build = [](bool reversed) {
    LpProblem base;
    std::vector<int> cols;
    std::vector<RowEntry> demand;
    for (int t = 0; t < 5; ++t) {
      cols.push_back(base.add_column(0.0, 0.0, 8.0));
      demand.push_back(RowEntry{cols.back(), 1.0});
    }
    base.add_row(RowSense::kEqual, 18.0, std::move(demand));
    std::vector<LoadRow> loads;
    for (int t = 0; t < 5; ++t) {
      const int index = reversed ? 4 - t : t;
      loads.push_back(LoadRow{
          {{cols[static_cast<std::size_t>(index)], 1.0}}, 10.0, ""});
    }
    LexMinMaxSolver solver;
    auto result = solver.solve(base, loads);
    std::sort(result.load.begin(), result.load.end());
    return result;
  };
  const auto forward = build(false);
  const auto backward = build(true);
  ASSERT_TRUE(forward.optimal());
  ASSERT_TRUE(backward.optimal());
  ASSERT_EQ(forward.load.size(), backward.load.size());
  for (std::size_t i = 0; i < forward.load.size(); ++i) {
    EXPECT_NEAR(forward.load[i], backward.load[i], 1e-6);
  }
}

TEST(LexMinMaxInvariance, ScalingNormalizersScalesLevels) {
  LpProblem base;
  const int x = base.add_column(0.0, 0.0, kInfinity);
  base.add_row(RowSense::kEqual, 12.0, {{x, 1.0}});
  LexMinMaxSolver solver;
  const auto small = solver.solve(base, {LoadRow{{{x, 1.0}}, 10.0, ""}});
  const auto large = solver.solve(base, {LoadRow{{{x, 1.0}}, 100.0, ""}});
  ASSERT_TRUE(small.optimal());
  ASSERT_TRUE(large.optimal());
  EXPECT_NEAR(small.max_level(), 10.0 * large.max_level(), 1e-6);
}

TEST(LexMinMaxInvariance, RoundBudgetExhaustionIsReportedAsTruncated) {
  // Two slots forced to distinct levels need two rounds; with max_rounds = 1
  // the solve must still return a feasible optimum for the first level but
  // flag that the tail was never refined.
  LpProblem base;
  const int a = base.add_column(0.0, 0.0, kInfinity);
  const int b = base.add_column(0.0, 0.0, kInfinity);
  base.add_row(RowSense::kEqual, 8.0, {{a, 1.0}});
  base.add_row(RowSense::kEqual, 2.0, {{b, 1.0}});
  const std::vector<LoadRow> loads = {LoadRow{{{a, 1.0}}, 10.0, ""},
                                      LoadRow{{{b, 1.0}}, 10.0, ""}};

  LexMinMaxOptions full;
  const auto exact = LexMinMaxSolver(full).solve(base, loads);
  ASSERT_TRUE(exact.optimal());
  EXPECT_FALSE(exact.truncated);

  LexMinMaxOptions capped;
  capped.max_rounds = 1;
  const auto truncated = LexMinMaxSolver(capped).solve(base, loads);
  ASSERT_TRUE(truncated.optimal());
  EXPECT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.rounds, 1);
  EXPECT_NEAR(truncated.max_level(), exact.max_level(), 1e-6);
}

// ---------------------------------------------------------------------------
// Warm-start properties: a warm solve must reach the same optimum as a cold
// one — the hint only changes the pivot count — and a stale or mismatched
// hint must fall back cleanly instead of corrupting the result.
// ---------------------------------------------------------------------------

class WarmStartProperty : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartProperty, ResolveWithOwnBasisMatchesColdOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const LpProblem p = random_boxed_lp(rng, 14, 9);
  SimplexSolver solver;
  const Solution cold = solver.solve(p);
  ASSERT_TRUE(cold.optimal());
  ASSERT_FALSE(cold.basis.empty());

  const Solution warm = solver.solve(p, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_start_used);
  EXPECT_FALSE(warm.warm_start_fallback);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_TRUE(p.is_feasible(warm.x, 1e-5));
  // Re-solving from the optimal basis must not cost more than from scratch.
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST_P(WarmStartProperty, PerturbedRhsWarmSolveMatchesColdSolve) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const LpProblem p = random_boxed_lp(rng, 12, 8);
  SimplexSolver solver;
  const Solution original = solver.solve(p);
  ASSERT_TRUE(original.optimal());

  // Same shape, shifted rhs: exactly the replan pattern warm starts absorb.
  LpProblem shifted = p;
  for (int i = 0; i < shifted.num_rows(); ++i) {
    shifted.set_row(i, shifted.row_sense(i),
                    shifted.row_rhs(i) + rng.uniform_real(-0.5, 0.5));
  }
  const Solution cold = solver.solve(shifted);
  const Solution warm = solver.solve(shifted, &original.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_TRUE(shifted.is_feasible(warm.x, 1e-5));
}

TEST_P(WarmStartProperty, MismatchedBasisFallsBackToColdSolve) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  const LpProblem small = random_boxed_lp(rng, 6, 4);
  const LpProblem big = random_boxed_lp(rng, 13, 9);
  SimplexSolver solver;
  const Solution donor = solver.solve(small);
  ASSERT_TRUE(donor.optimal());

  const Solution cold = solver.solve(big);
  const Solution warm = solver.solve(big, &donor.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_FALSE(warm.warm_start_used);
  EXPECT_TRUE(warm.warm_start_fallback);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartProperty, ::testing::Range(1, 13));

// A random placement-shaped lexmin instance: jobs spread demand over slot
// windows, one load row per slot. `jobs` is the same instance as resource 0
// of a placement over `caps`, the input of the flow lexmin.
struct LexMinInstance {
  LpProblem base;
  std::vector<LoadRow> loads;
  std::vector<core::LpJob> jobs;
  std::vector<workload::ResourceVec> caps;
};

LexMinInstance random_lexmin_instance(util::Rng& rng, int jobs, int slots) {
  LexMinInstance inst;
  std::vector<std::vector<RowEntry>> slot_entries(
      static_cast<std::size_t>(slots));
  for (int j = 0; j < jobs; ++j) {
    const int release = static_cast<int>(rng.uniform_int(0, slots - 1));
    const int deadline =
        static_cast<int>(rng.uniform_int(release, slots - 1));
    const int window = deadline - release + 1;
    const double width = rng.uniform_real(2.0, 6.0);
    const double demand = rng.uniform_real(0.5, 0.9) * width * window;
    std::vector<RowEntry> demand_row;
    for (int t = release; t <= deadline; ++t) {
      const int col = inst.base.add_column(0.0, 0.0, width);
      demand_row.push_back(RowEntry{col, 1.0});
      slot_entries[static_cast<std::size_t>(t)].push_back(
          RowEntry{col, 1.0});
    }
    inst.base.add_row(RowSense::kEqual, demand, std::move(demand_row));
    core::LpJob job;
    job.release_slot = release;
    job.deadline_slot = deadline;
    job.demand[0] = demand;
    job.width[0] = width;
    inst.jobs.push_back(job);
  }
  for (int t = 0; t < slots; ++t) {
    inst.loads.push_back(
        LoadRow{slot_entries[static_cast<std::size_t>(t)], 20.0, ""});
  }
  inst.caps.assign(static_cast<std::size_t>(slots),
                   workload::ResourceVec{20.0});
  return inst;
}

std::vector<double> sorted_descending(std::vector<double> values) {
  std::sort(values.rbegin(), values.rend());
  return values;
}

class LexMinWarmStartProperty : public ::testing::TestWithParam<int> {};

TEST_P(LexMinWarmStartProperty, WarmStartedSolveReproducesTheColdProfile) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
  const LexMinInstance inst = random_lexmin_instance(rng, 5, 6);
  LexMinMaxSolver solver;
  const auto cold = solver.solve(inst.base, inst.loads);
  ASSERT_TRUE(cold.optimal());
  ASSERT_FALSE(cold.final_basis.empty());

  const auto warm = solver.solve(inst.base, inst.loads, &cold.final_basis);
  ASSERT_TRUE(warm.optimal());
  ASSERT_EQ(warm.levels.size(), cold.levels.size());
  for (std::size_t i = 0; i < cold.levels.size(); ++i) {
    EXPECT_NEAR(warm.levels[i], cold.levels[i], 1e-6) << "level " << i;
  }
  ASSERT_EQ(warm.load.size(), cold.load.size());
  for (std::size_t k = 0; k < cold.load.size(); ++k) {
    EXPECT_NEAR(warm.load[k], cold.load[k], 1e-5) << "load " << k;
  }
  // No pivot-count assertion here: on instances this small the cross-solve
  // hint's repair pivots can outweigh the skipped phase 1. The smoke test
  // asserts the pivot win at scheduler scale.
}

TEST_P(LexMinWarmStartProperty, ExactFixingAgreesUnderWarmStart) {
  // The flow lexmin's exact fixing (maximal tight sets, core/
  // flow_placement.h) and the warm-started dual-test lexmin must agree on
  // the whole sorted level vector, not just the peak.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const LexMinInstance inst = random_lexmin_instance(rng, 4, 5);
  LexMinMaxSolver solver;
  const auto cold = solver.solve(inst.base, inst.loads);
  ASSERT_TRUE(cold.optimal());
  const auto warm = solver.solve(inst.base, inst.loads, &cold.final_basis);
  ASSERT_TRUE(warm.optimal());
  const auto flow = core::solve_resource_flow_lexmin(inst.jobs, inst.caps,
                                                     0, 0);
  ASSERT_TRUE(flow.ok());
  const std::vector<double> expected = sorted_descending(warm.load);
  const std::vector<double> got = sorted_descending(flow.load);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(got[k], expected[k], 1e-6) << "coordinate " << k;
  }
}

TEST_P(LexMinWarmStartProperty, ForeignBasisIsHarmless) {
  // A basis from a differently-shaped instance must be rejected inside the
  // simplex (shape check) without affecting the lexmin result.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 8000);
  const LexMinInstance inst = random_lexmin_instance(rng, 5, 6);
  const LexMinInstance other = random_lexmin_instance(rng, 3, 4);
  LexMinMaxSolver solver;
  const auto donor = solver.solve(other.base, other.loads);
  ASSERT_TRUE(donor.optimal());
  const auto cold = solver.solve(inst.base, inst.loads);
  const auto warm = solver.solve(inst.base, inst.loads, &donor.final_basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.max_level(), cold.max_level(), 1e-6);
  ASSERT_EQ(warm.load.size(), cold.load.size());
  for (std::size_t k = 0; k < cold.load.size(); ++k) {
    EXPECT_NEAR(warm.load[k], cold.load[k], 1e-5) << "load " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexMinWarmStartProperty,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Phase-1 tolerance scaling: infeasibility is judged against
// feasibility_tol * max(1, ||b||_inf), not an absolute 1e-6.
// ---------------------------------------------------------------------------

TEST(SimplexToleranceScaling, LargeRhsFeasibleProblemStaysOptimal) {
  // At rhs ~1e9 the phase-1 objective retains roundoff far above an
  // absolute 1e-6; the scaled threshold must still accept it as feasible.
  LpProblem p;
  const double scale = 1e9;
  const int x = p.add_column(1.0, 0.0, kInfinity);
  const int y = p.add_column(2.0, 0.0, kInfinity);
  p.add_row(RowSense::kEqual, 3.0 * scale, {{x, 1.0}, {y, 2.0}});
  p.add_row(RowSense::kEqual, 1.0 * scale, {{x, 1.0}, {y, -1.0}});
  p.add_row(RowSense::kLessEqual, 5.0 * scale, {{x, 2.0}, {y, 1.0}});
  SimplexSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  // x = 5e8/3*... solve directly: x - y = 1e9, x + 2y = 3e9 => y = 2e9/3.
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0 * scale / 3.0,
              1e-3 * scale);
  EXPECT_NEAR(s.objective,
              p.objective_value(s.x), 1e-6 * scale);
}

TEST(SimplexToleranceScaling, SmallInfeasibleProblemIsStillDetected) {
  // Scaling the threshold by max(1, ||b||_inf) must not mask genuinely
  // infeasible systems whose data is of order one.
  LpProblem p;
  const int x = p.add_column(1.0, 0.0, 1.0);
  p.add_row(RowSense::kEqual, 2.0, {{x, 1.0}});   // x = 2 but x <= 1
  SimplexSolver solver;
  const Solution s = solver.solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

}  // namespace
}  // namespace flowtime::lp
